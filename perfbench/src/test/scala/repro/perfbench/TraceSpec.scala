package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder.master("local[2]").appName("perfbench-test").getOrCreate()

  override def afterAll(): Unit = spark.stop()

  test("listener events become per-action counts once the bus has drained") {
    val sc       = spark.sparkContext
    val listener = new LeafListener
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("a", "two trees of three leaves")
      sc.parallelize(1 to 30, 3).map(_ * 2).collect()
      sc.parallelize(1 to 30, 3).count()
      sc.setJobGroup("b", "one tree of four leaves")
      sc.parallelize(1 to 40, 4).collect()
      sc.clearJobGroup()
      sc.parallelize(1 to 10, 2).count() // no group: not an action
      listener.drain(sc)

      val counts = Trace.perAction(listener.trees, listener.leaves)
      assert(counts.keySet == Set("a", "b"))
      assert(counts("a").trees == 2 && counts("a").leaves == 6)
      assert(counts("b").trees == 1 && counts("b").leaves == 4)
      assert(counts.values.forall(c => c.failedLeaves == 0 && c.resultBytes > 0))
      val bJob = listener.trees.find(_.group == "b").get
      assert(counts("b").firstResultMs.exists(ms => ms >= bJob.startMs && ms <= bJob.endMs))
    } finally sc.removeSparkListener(listener)
  }

  test("derived layer metrics split an action into tree and root time") {
    val action = ActionSpan("g", "O1", 0, startUs = 1_000_000L, endUs = 1_100_000L) // 1000..1100 ms
    val trees  = Seq(TreeRec(1, "g", 1010L, 1050L, failed = false), TreeRec(2, "g", 1060L, 1090L, failed = false))
    val leaves = Seq(
      LeafRec(1, 1, 1012L, 1030L, 2L, 0L, 2048L, failed = false),
      LeafRec(2, 1, 1015L, 1045L, 1L, 4L, 2048L, failed = false),
      LeafRec(3, 2, 1061L, 1089L, 1L, 0L, 1024L, failed = true))
    val m = Trace.derived(Seq(action), trees, leaves).map(x => x.name -> x.value).toMap
    assert(m("engine.trees_per_action") == 2.0)
    assert(m("engine.leaves_per_tree") == 1.5)
    assert(m("engine.root_self_ms") == 30.0)            // 100 ms minus 40 + 30 ms of trees
    assert(m("engine.tree_self_ms") == (7.0 + 2.0) / 2) // job 1: 40 - 33; job 2: 30 - 28
    assert(m("engine.leaf_ms_max") == (30.0 + 28.0) / 2)
    assert(m("engine.leaf_wait_ms") == 2.0)
    assert(m("engine.result_kb_per_tree") == 2.5)
    assert(m("engine.failed_leaves") == 1.0)
  }
}

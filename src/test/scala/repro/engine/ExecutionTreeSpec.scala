package repro.engine

import org.apache.spark.SparkException
import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.time.{Seconds, Span}
import repro.{SparkSpec, SynthData}
import repro.core._
import repro.storage.{CachedTable, ColumnStore, ColumnarBlock}

class ExecutionTreeSpec extends SparkSpec with TimeLimits {

  private lazy val table = {
    val df = SynthData.uniformKeys(spark, 200000, 1000).repartition(16)
    ColumnStore.fromDataFrame("uk", df, blockRows = 5000).warm()
  }
  private val buckets = NumericBuckets(1, 1001, 50)

  test("run computes the same result as a local fold") {
    val got = ExecutionTree.run(table, StreamingHistogramSketch("k", buckets))
    assert(got.counts.sum + got.outOfRange == 200000L)
  }

  test("progressive final value equals blocking run") {
    val run  = ExecutionTree.run(table, StreamingHistogramSketch("k", buckets))
    val prog = ExecutionTree.runProgressive(table, StreamingHistogramSketch("k", buckets),
      aggregationIntervalMs = 10)
    assert(prog.finalValue.counts.toSeq == run.counts.toSeq)
    assert(!prog.cancelled)
  }

  test("progressive partials converge monotonically in leaves done") {
    val prog = ExecutionTree.runProgressive(table, MomentsSketch("k"), aggregationIntervalMs = 10)
    val dones = prog.partials.map(_.leavesDone)
    assert(dones == dones.sorted)
    assert(dones.last == prog.partials.head.leavesTotal)
    // counts only grow as leaves complete
    val counts = prog.partials.map(_.value.count)
    assert(counts == counts.sorted)
    assert(counts.last == 200000L)
  }

  test("partials report elapsed time and per-update bytes") {
    val prog = ExecutionTree.runProgressive(table, StreamingHistogramSketch("k", buckets),
      aggregationIntervalMs = 10)
    prog.partials.foreach { p =>
      assert(p.elapsedMs > 0)
      assert(p.bytesThisUpdate > 0)
    }
    val times = prog.partials.map(_.elapsedMs)
    assert(times == times.sorted)
  }

  test("summaries stay small: bytes are O(screen), not O(data)") {
    val prog = ExecutionTree.runProgressive(table, StreamingHistogramSketch("k", buckets))
    assert(prog.totalBytes < 100 * 1024, s"root received ${prog.totalBytes} bytes")
  }

  test("aggregation interval batches arrivals into at most one update per leaf") {
    val prog = ExecutionTree.runProgressive(table, MomentsSketch("k"), aggregationIntervalMs = 1)
    assert(prog.updates >= 1 && prog.updates <= table.numLeaves)
    assert(prog.partials.last.leavesDone == table.numLeaves)
  }

  test("cancellation drops not-yet-started micropartitions") {
    // Slow leaves over more partitions than cores, so partials arrive
    // while work is still queued and cancellation has something to drop.
    val slowTable = {
      val df = SynthData.uniformKeys(spark, 64000, 100).repartition(64)
      ColumnStore.fromDataFrame("uk-slow", df, blockRows = 1000).warm()
    }
    val prog = ExecutionTree.runProgressive(slowTable, SlowMoments("k"),
      aggregationIntervalMs = 50,
      cancel = (p: Partial[MomentsSummary]) => p.leavesDone >= 4)
    assert(prog.cancelled)
    assert(prog.partials.last.leavesDone < 64)
    assert(prog.partials.last.value.count < 64000L)
    slowTable.drop()
  }

  test("sampled sketches are deterministic across progressive/blocking execution") {
    val sk = SampledHistogramSketch("k", buckets, 0.1)
    val a  = ExecutionTree.run(table, sk, seed = 5)
    val b  = ExecutionTree.runProgressive(table, sk, seed = 5).finalValue
    assert(a.counts.toSeq == b.counts.toSeq)
    val c = ExecutionTree.run(table, sk, seed = 6)
    assert(a.counts.toSeq != c.counts.toSeq)
    val q  = QuantileSketch(Seq(SortCol("k")), 0.01)
    val qa = ExecutionTree.run(table, q, seed = 5)
    assert(qa.rows.nonEmpty)
    assert(qa == ExecutionTree.runProgressive(table, q, seed = 5).finalValue)
    assert(qa != ExecutionTree.run(table, q, seed = 6))
  }

  test("empty table yields the zero summary") {
    import spark.implicits._
    val empty = ColumnStore.fromDataFrame("empty",
      Seq.empty[Double].toDF("k"), cache = false)
    val got = ExecutionTree.run(empty, MomentsSketch("k"))
    assert(got.isEmpty)
  }

  test("run over a table with zero partitions returns the zero summary") {
    val none = new CachedTable("none", spark.sparkContext.emptyRDD[ColumnarBlock], Seq("k"))
    assert(none.numLeaves == 0)
    val got = ExecutionTree.run(none, StreamingHistogramSketch("k", buckets))
    assert(got.counts.toSeq == StreamingHistogramSketch("k", buckets).zero.counts.toSeq)
  }

  test("a failing leaf makes run and runProgressive rethrow promptly") {
    implicit val signaler: Signaler = ThreadSignaler
    failAfter(Span(30, Seconds)) {
      val e1 = intercept[SparkException](ExecutionTree.run(table, FailingMoments("k")))
      assert(e1.getMessage.contains("leaf failed"))
      val e2 = intercept[SparkException](ExecutionTree.runProgressive(table, FailingMoments("k")))
      assert(e2.getMessage.contains("leaf failed"))
    }
  }
}

/** Moments sketch whose leaves always throw. */
final case class FailingMoments(col: String) extends Sketch[MomentsSummary] {
  private val inner = MomentsSketch(col)
  def name = "failing.moments"
  def zero = inner.zero
  def summarize(b: ColumnarBlock, ctx: LeafCtx): MomentsSummary =
    throw new IllegalStateException("leaf failed")
  def merge(a: MomentsSummary, b: MomentsSummary): MomentsSummary = inner.merge(a, b)
}

/** Moments sketch with an artificial 100 ms leaf delay — used to test
  * cancellation with work still queued. Top-level so Spark can serialize
  * it without capturing the test suite.
  */
final case class SlowMoments(col: String) extends Sketch[MomentsSummary] {
  private val inner = MomentsSketch(col)
  def name = "slow.moments"
  def zero = inner.zero
  def summarize(b: repro.storage.ColumnarBlock, ctx: LeafCtx): MomentsSummary = {
    Thread.sleep(100); inner.summarize(b, ctx)
  }
  def merge(a: MomentsSummary, b: MomentsSummary): MomentsSummary = inner.merge(a, b)
}

class LocalWorkerSpec extends org.scalatest.funsuite.AnyFunSuite {
  import repro.TestData._

  private val values = randomDoubles(40000, seed = 31)
  private val bk     = NumericBuckets(0, 100, 20)

  test("result is identical for any thread count") {
    val blocks = splitBlocks(values, 8)
    val ref    = LocalWorker.run(blocks, StreamingHistogramSketch("x", bk), 1)
    for (t <- Seq(2, 4, 8))
      assert(LocalWorker.run(blocks, StreamingHistogramSketch("x", bk), t).counts.toSeq ==
        ref.counts.toSeq, s"threads=$t")
  }

  test("sampled sketches stay deterministic under concurrency") {
    val blocks = splitBlocks(values, 8)
    val a = LocalWorker.run(blocks, SampledHistogramSketch("x", bk, 0.2), 4, seed = 3)
    val b = LocalWorker.run(blocks, SampledHistogramSketch("x", bk, 0.2), 8, seed = 3)
    assert(a.counts.toSeq == b.counts.toSeq)
  }

  test("timeMs returns a positive median") {
    val blocks = splitBlocks(values, 4)
    assert(LocalWorker.timeMs(blocks, StreamingHistogramSketch("x", bk), 2, reps = 3, warmups = 1) > 0)
  }

  test("rejects zero threads") {
    intercept[IllegalArgumentException](
      LocalWorker.run(splitBlocks(values, 2), MomentsSketch("x"), 0))
  }

  test("ClusterSim reports per-server and max latency") {
    val servers = (0 until 3).map(_ => splitBlocks(values, 2))
    val r = ClusterSim.run(servers, StreamingHistogramSketch("x", bk), threadsPerServer = 2, reps = 1)
    assert(r.perServerMs.length == 3)
    assert(r.simulatedLatencyMs == r.perServerMs.max)
  }
}

class ComputationCacheSpec extends org.scalatest.funsuite.AnyFunSuite {

  test("second lookup is a hit and skips compute") {
    val cache = new ComputationCache()
    var computes = 0
    def get() = cache.getOrCompute("t1", "moments[x]") { computes += 1; 42 }
    assert(get() == 42 && get() == 42)
    assert(computes == 1)
    assert(cache.hitCount == 1 && cache.missCount == 1)
  }

  test("keys separate by table and sketch") {
    val cache = new ComputationCache()
    cache.getOrCompute("t1", "a")(1)
    cache.getOrCompute("t2", "a")(2)
    cache.getOrCompute("t1", "b")(3)
    assert(cache.size == 3)
    assert(cache.getOrCompute("t2", "a")(99) == 2)
  }

  test("contains reflects stored keys") {
    val cache = new ComputationCache()
    assert(!cache.contains("t", "k"))
    cache.getOrCompute("t", "k")(7)
    assert(cache.contains("t", "k"))
  }

  test("clear drops entries and stats") {
    val cache = new ComputationCache()
    cache.getOrCompute("t", "k")(7)
    cache.clear()
    assert(cache.size == 0 && cache.hitCount == 0)
    assert(cache.getOrCompute("t", "k")(8) == 8)
  }

  test("capacity bound stops insertion, not correctness") {
    val cache = new ComputationCache(maxEntries = 2)
    (1 to 5).foreach(i => cache.getOrCompute("t", s"k$i")(i))
    assert(cache.size == 2)
    assert(cache.getOrCompute("t", "k5")(55) == 55) // recomputed, not cached
  }
}

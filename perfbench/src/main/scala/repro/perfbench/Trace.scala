package repro.perfbench

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import org.apache.spark.{BusDrain, SparkContext}
import org.apache.spark.scheduler._
import scala.jdk.CollectionConverters._

/** One user action of the closed loop, timed by the client. Its `group`
  * is the Spark job group every tree of the action runs under. Epoch
  * microseconds.
  */
final case class ActionSpan(group: String, name: String, pass: Int, startUs: Long, endUs: Long)

/** A Spark job, i.e. one execution tree (or a filter/count job). Epoch ms. */
final case class TreeRec(jobId: Int, group: String, startMs: Long, endMs: Long, failed: Boolean)

/** A Spark task, i.e. one leaf of a tree. Epoch ms, as Spark reports them. */
final case class LeafRec(taskId: Long, jobId: Int, launchMs: Long, finishMs: Long,
                         deserMs: Long, gcMs: Long, resultBytes: Long, failed: Boolean)

/** What one action cost below the client, summed over its trees. */
final case class ActionCounts(trees: Int, leaves: Int, resultBytes: Long, failedLeaves: Int,
                              firstResultMs: Option[Long])

/** Records every job and task the scheduler reports. Events arrive on
  * Spark's asynchronous listener bus, so readers call [[drain]] first.
  */
final class LeafListener extends SparkListener {
  private val stageJob = new ConcurrentHashMap[Int, Int]()
  private val jobGroup = new ConcurrentHashMap[Int, String]()
  private val jobStart = new ConcurrentHashMap[Int, Long]()
  private val treeQ    = new ConcurrentLinkedQueue[TreeRec]()
  private val leafQ    = new ConcurrentLinkedQueue[LeafRec]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty(LeafListener.GroupKey))).getOrElse("")
    jobGroup.put(e.jobId, g)
    jobStart.put(e.jobId, e.time)
    e.stageIds.foreach(s => stageJob.put(s, e.jobId))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    treeQ.add(TreeRec(e.jobId, jobGroup.getOrDefault(e.jobId, ""),
      jobStart.getOrDefault(e.jobId, e.time), e.time, e.jobResult != JobSucceeded))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val info = e.taskInfo
    val m    = Option(e.taskMetrics)
    leafQ.add(LeafRec(info.taskId, stageJob.getOrDefault(e.stageId, -1), info.launchTime,
      info.finishTime, m.map(_.executorDeserializeTime).getOrElse(0L),
      m.map(_.jvmGCTime).getOrElse(0L), m.map(_.resultSize).getOrElse(0L), !info.successful))
  }

  def drain(sc: SparkContext): Unit = BusDrain.drain(sc)
  def trees: Vector[TreeRec]        = treeQ.asScala.toVector
  def leaves: Vector[LeafRec]       = leafQ.asScala.toVector
}

object LeafListener {
  /** The local property `SparkContext.setJobGroup` sets. */
  val GroupKey = "spark.jobGroup.id"
}

object Trace {

  /** Per job group: how many trees and leaves ran, the bytes the leaves'
    * results carried to the root, failed leaves, and when the first leaf
    * result reached the root. Jobs without a group are ignored.
    */
  def perAction(trees: Seq[TreeRec], leaves: Seq[LeafRec]): Map[String, ActionCounts] = {
    val leavesByJob = leaves.groupBy(_.jobId)
    trees.filter(_.group.nonEmpty).groupBy(_.group).map { case (g, ts) =>
      val ls = ts.flatMap(t => leavesByJob.getOrElse(t.jobId, Nil))
      val ok = ls.filterNot(_.failed)
      g -> ActionCounts(ts.size, ls.size, ls.map(_.resultBytes).sum, ls.count(_.failed),
        if (ok.isEmpty) None else Some(ok.map(_.finishMs).min))
    }
  }

  /** Layer metrics derived from the spans of the given actions. */
  def derived(actions: Seq[ActionSpan], trees: Seq[TreeRec], leaves: Seq[LeafRec]): Seq[Metric] = {
    val groups   = actions.map(_.group).toSet
    val ts       = trees.filter(t => groups.contains(t.group))
    val jobIds   = ts.map(_.jobId).toSet
    val ls       = leaves.filter(l => jobIds.contains(l.jobId))
    val byJob    = ls.groupBy(_.jobId)
    val treesOf  = ts.groupBy(_.group)
    val nTrees   = math.max(ts.size, 1)
    def d(xs: Seq[Long]) = xs.map(_.toDouble)
    def med(xs: Seq[Double]) = if (xs.isEmpty) 0.0 else Stats.median(xs)
    val treeSelf = ts.map(t => Stats.selfTime((t.startMs, t.endMs),
      byJob.getOrElse(t.jobId, Nil).map(l => (l.launchMs, l.finishMs))).toDouble)
    val rootSelf = actions.map { a =>
      Stats.selfTime((a.startUs, a.endUs),
        treesOf.getOrElse(a.group, Nil).map(t => (t.startMs * 1000, t.endMs * 1000))) / 1000.0
    }
    val startOf  = ts.map(t => t.jobId -> t.startMs).toMap
    Seq(
      Metric("engine.trees_per_action", ts.size.toDouble / math.max(actions.size, 1), "count"),
      Metric("engine.leaves_per_tree", ls.size.toDouble / nTrees, "count"),
      Metric("engine.leaf_ms_p50", med(d(ls.map(l => l.finishMs - l.launchMs))), "ms"),
      Metric("engine.leaf_ms_max", med(ts.map(t => byJob.getOrElse(t.jobId, Nil)
        .map(l => (l.finishMs - l.launchMs).toDouble).maxOption.getOrElse(0.0))), "ms"),
      Metric("engine.leaf_wait_ms", med(d(ls.map(l => l.launchMs - startOf(l.jobId)))), "ms"),
      Metric("engine.leaf_deser_ms", med(d(ls.map(_.deserMs))), "ms"),
      Metric("engine.leaf_gc_ms", if (ls.isEmpty) 0.0 else Stats.mean(d(ls.map(_.gcMs))), "ms"),
      Metric("engine.result_kb_per_tree", ls.map(_.resultBytes).sum / 1024.0 / nTrees, "KB"),
      Metric("engine.tree_self_ms", med(treeSelf), "ms"),
      Metric("engine.root_self_ms", med(rootSelf), "ms"),
      Metric("engine.failed_leaves", ls.count(_.failed).toDouble, "count"),
    )
  }

  /** Spans as JSON lines: action → tree (job) → leaf (task), each with
    * its start, end (epoch ms) and parent.
    */
  def spanLines(actions: Seq[ActionSpan], trees: Seq[TreeRec], leaves: Seq[LeafRec]): Iterator[String] = {
    val groups = actions.map(_.group).toSet
    val ts     = trees.filter(t => groups.contains(t.group))
    val jobIds = ts.map(_.jobId).toSet
    def line(kind: String, id: String, parent: String, start: Double, end: Double,
             extra: (String, Json.Value)*): String =
      Json.obj(Seq("kind" -> Json.Str(kind), "id" -> Json.Str(id),
        "parent" -> (if (parent == null) Json.Null else Json.Str(parent)),
        "start_ms" -> Json.Num(start), "end_ms" -> Json.Num(end)) ++ extra: _*).render
    actions.iterator.map(a => line("action", a.group, null, a.startUs / 1000.0, a.endUs / 1000.0,
      "name" -> Json.Str(a.name))) ++
      ts.iterator.map(t => line("tree", s"job-${t.jobId}", t.group, t.startMs.toDouble, t.endMs.toDouble,
        "failed" -> Json.Bool(t.failed))) ++
      leaves.iterator.filter(l => jobIds.contains(l.jobId)).map(l =>
        line("leaf", s"task-${l.taskId}", s"job-${l.jobId}", l.launchMs.toDouble, l.finishMs.toDouble,
          "result_bytes" -> Json.Num(l.resultBytes.toDouble), "deser_ms" -> Json.Num(l.deserMs.toDouble),
          "gc_ms" -> Json.Num(l.gcMs.toDouble), "failed" -> Json.Bool(l.failed)))
  }
}

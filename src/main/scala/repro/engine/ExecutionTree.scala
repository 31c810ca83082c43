package repro.engine

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import org.apache.spark.rdd.RDD
import scala.concurrent.ExecutionContext
import scala.reflect.ClassTag
import scala.util.{Failure, Success, Try}
import repro.core.{LeafCtx, Serde, Sketch}
import repro.storage.CachedTable

/** One partial update delivered to the root (§5.3): the merged summary so
  * far, progress (leaves completed), elapsed time, and the serialized size
  * of the update this wave sent up the tree — the root-received bytes the
  * paper plots in Fig. 5 (bottom).
  */
final case class Partial[S](
    value: S,
    leavesDone: Int,
    leavesTotal: Int,
    elapsedMs: Double,
    bytesThisUpdate: Long
)

/** Outcome of a progressive run: all partials in arrival order. */
final case class ProgressiveResult[S](partials: Vector[Partial[S]], cancelled: Boolean) {
  def finalValue: S          = partials.last.value
  def firstPartialMs: Double = partials.head.elapsedMs
  def totalMs: Double        = partials.last.elapsedMs
  def totalBytes: Long       = partials.map(_.bytesThisUpdate).sum
  def updates: Int           = partials.length
}

/** The distributed execution tree (§5.3): leaves run `summarize` over
  * micropartitions in parallel; aggregation nodes `merge`; the root
  * streams partial results (`runProgressive`) or waits for the last one
  * (`run`). Both are one Spark job over the partitions of the cached
  * block RDD, whose results the root batches on the aggregation interval.
  */
object ExecutionTree {

  /** Per-leaf summaries; blocks within a partition merge locally first
    * (a worker-level aggregation node).
    */
  private def leafSummaries[S: ClassTag](t: CachedTable, sk: Sketch[S], seed: Long): RDD[S] =
    t.blocks.mapPartitionsWithIndex { (pid, it) =>
      var acc     = sk.zero
      var blockNo = 0
      while (it.hasNext) {
        val b = it.next()
        acc = sk.merge(acc, sk.summarize(b, LeafCtx(pid * 100000 + blockNo, seed)))
        blockNo += 1
      }
      Iterator.single(acc)
    }

  /** Blocking execution: the progressive job with no intermediate partials. */
  def run[S: ClassTag](t: CachedTable, sk: Sketch[S], seed: Long = 0L): S =
    runProgressive(t, sk, seed, aggregationIntervalMs = Long.MaxValue).finalValue

  /** Progressive execution: ALL leaves run in parallel (one Spark job);
    * as each leaf's summary arrives at the root it is queued, and the
    * root batches arrivals on a 0.1-second aggregation interval before
    * emitting a partial — the paper's straggler-tolerant design (§5.3:
    * "nodes periodically propagate partially merged results … aggregation
    * nodes wait for 0.1 seconds and aggregate all results that arrive
    * within this interval"). The root blocks on the arrival queue until
    * the next leaf result or deadline; a failed or cancelled job queues
    * its failure, which the root rethrows.
    *
    * Cancellation cancels the job, which drops not-yet-started
    * micropartitions; running ones are not interrupted, exactly as in the
    * paper ("we currently do not stop ongoing computations").
    */
  def runProgressive[S: ClassTag](
      t: CachedTable,
      sk: Sketch[S],
      seed: Long = 0L,
      aggregationIntervalMs: Long = 100L,
      cancel: Partial[S] => Boolean = (_: Partial[S]) => false
  ): ProgressiveResult[S] = {
    val summ  = leafSummaries(t, sk, seed)
    val parts = summ.getNumPartitions
    if (parts == 0) return ProgressiveResult(Vector(Partial(sk.zero, 0, 0, 0.0, 0L)), cancelled = false)

    val queue = new LinkedBlockingQueue[Try[S]]()
    val start = System.nanoTime()
    val action = summ.sparkContext.submitJob[S, S, Unit](
      summ,
      (it: Iterator[S]) => it.foldLeft(sk.zero)(sk.merge),
      0 until parts,
      (_: Int, s: S) => { queue.add(Success(s)); () },
      ())
    action.failed.foreach(e => queue.add(Failure(e)))(ExecutionContext.parasitic)

    val intervalNs = TimeUnit.MILLISECONDS.toNanos(aggregationIntervalMs)
    var acc        = sk.zero
    var done       = 0
    var cancelled  = false
    var lastEmit   = start
    var pending    = sk.zero
    var pendingN   = 0
    val partials   = Vector.newBuilder[Partial[S]]

    while (done < parts && !cancelled) {
      // Wait for a leaf, or only until the interval closes if a batch is pending.
      var s = if (pendingN == 0) queue.take()
              else queue.poll(intervalNs - (System.nanoTime() - lastEmit), TimeUnit.NANOSECONDS)
      while (s != null) { pending = sk.merge(pending, s.get); pendingN += 1; s = queue.poll() }
      val complete = done + pendingN == parts
      if (complete || System.nanoTime() - lastEmit >= intervalNs) {
        // The aggregation layer ships one merged update; the root merges
        // it into the running result and forwards a partial to the UI.
        acc = sk.merge(acc, pending)
        done += pendingN
        val p = Partial(acc, done, parts, (System.nanoTime() - start) / 1e6, Serde.sizeOf(pending))
        partials += p
        pending = sk.zero
        pendingN = 0
        lastEmit = System.nanoTime()
        if (!complete && cancel(p)) { cancelled = true; action.cancel() }
      }
    }
    ProgressiveResult(partials.result(), cancelled)
  }
}

package repro.core

import repro.storage.ColumnarBlock

/** Summary: a uniform sample of `n` rows held as the bottom-n rows by a
  * per-row random priority (bottom-k sampling, mergeable by union+trim).
  * The root sorts the sampled keys and reads off the requested quantile.
  */
final case class QuantileSummary(
    sample: Vector[(Long, RowKey)], // (priority, key), sorted by priority
    capacity: Int
) extends Serializable

/** Quantile-for-scroll-bar vizketch (§4.3 / Theorem 2): with O(V²·log(1/δ))
  * sampled rows, the returned row's rank is within ε = 1/(2V) of the
  * scroll position w.h.p. Priorities are deterministic in
  * (seed, blockId, rowIndex) so replay reproduces the same answer (§5.8).
  */
final case class QuantileSketch(
    sortCols: Seq[SortCol],
    sampleSize: Int
) extends Sketch[QuantileSummary] {
  require(sampleSize > 0, "sampleSize must be positive")
  def name            = "quantile"
  override def params = s"${sortCols.mkString(",")},n=$sampleSize"

  def zero = QuantileSummary(Vector.empty, sampleSize)

  def summarize(block: ColumnarBlock, ctx: LeafCtx): QuantileSummary = {
    // Bounded max-heap on priority: keep the sampleSize smallest priorities.
    val heap = new java.util.PriorityQueue[(Long, RowKey)](
      sampleSize + 1, (a: (Long, RowKey), b: (Long, RowKey)) => java.lang.Long.compare(b._1, a._1))
    val cs = sortCols.map(sc => block.column(sc.name)).toArray
    block.foreachRow { i =>
      val pri = SplitMix.mix(SplitMix.mix(ctx.seed, ctx.blockId.toLong), i.toLong)
      if (heap.size < sampleSize || pri < heap.peek()._1) {
        heap.add((pri, RowKey.of(cs, i)))
        if (heap.size > sampleSize) heap.poll()
      }
    }
    val arr = heap.toArray(new Array[(Long, RowKey)](heap.size)).sortBy(_._1)
    QuantileSummary(arr.toVector, sampleSize)
  }

  def merge(a: QuantileSummary, b: QuantileSummary): QuantileSummary = {
    val out = Vector.newBuilder[(Long, RowKey)]
    var i = 0
    var j = 0
    var taken = 0
    val cap = math.max(a.capacity, b.capacity)
    while (taken < cap && (i < a.sample.length || j < b.sample.length)) {
      val takeA = j >= b.sample.length ||
        (i < a.sample.length && a.sample(i)._1 <= b.sample(j)._1)
      if (takeA) { out += a.sample(i); i += 1 } else { out += b.sample(j); j += 1 }
      taken += 1
    }
    QuantileSummary(out.result(), cap)
  }
}

object QuantileSketch {
  /** Row key at quantile q of the sampled sort order. */
  def quantileOf(s: QuantileSummary, sortCols: Seq[SortCol], q: Double): Option[RowKey] = {
    if (s.sample.isEmpty) return None
    val sorted = s.sample.map(_._2).sorted(RowKey.ordering(sortCols))
    val idx    = math.min(sorted.length - 1, math.max(0, (q * sorted.length).toInt))
    Some(sorted(idx))
  }
}

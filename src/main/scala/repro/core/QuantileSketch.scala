package repro.core

import repro.storage.{ColumnStore, ColumnarBlock}

/** Summary: the sort keys of a uniform row sample, in sort order. The root
  * reads off the requested quantile by index.
  */
final case class QuantileSummary(rows: Vector[RowKey]) extends Serializable

/** Quantile-for-scroll-bar vizketch (§4.3 / Theorem 2): with O(V²) sampled
  * rows, the returned row's rank is within ε = 1/(2V) of the scroll
  * position w.h.p. Each leaf keeps a Bernoulli(rate) sample of its member
  * rows, deterministic in (seed, blockId) so replay reproduces the same
  * answer (§5.8), and sorts their keys; `merge` is the linear merge of two
  * sorted runs. Equal keys are equal values, so a merged summary does not
  * depend on the order in which leaves arrive.
  */
final case class QuantileSketch(sortCols: Seq[SortCol], rate: Double)
    extends Sketch[QuantileSummary] {
  require(rate > 0 && rate <= 1.0, s"rate must be in (0,1]: $rate")
  def name            = "quantile"
  override def params = f"${sortCols.mkString(",")},r=$rate%.8f"

  private val ord = RowKey.ordering(sortCols)

  def zero = QuantileSummary(Vector.empty)

  def summarize(block: ColumnarBlock, ctx: LeafCtx): QuantileSummary = {
    val cs   = sortCols.map(sc => block.column(sc.name)).toArray
    val keys = Vector.newBuilder[RowKey]
    block.foreachSampledRow(rate, ctx.rng)(i => keys += RowKey.of(cs, i))
    QuantileSummary(keys.result().sorted(ord))
  }

  def merge(a: QuantileSummary, b: QuantileSummary): QuantileSummary = {
    val out = Vector.newBuilder[RowKey]
    var i = 0
    var j = 0
    while (i < a.rows.length || j < b.rows.length) {
      if (j >= b.rows.length || (i < a.rows.length && ord.compare(a.rows(i), b.rows(j)) <= 0)) {
        out += a.rows(i); i += 1
      } else { out += b.rows(j); j += 1 }
    }
    QuantileSummary(out.result())
  }
}

object QuantileSketch {
  // The end-to-end benchmark (perfbench/) keeps its sources fixed across program
  // changes so that its numbers compare between commits, and it still sizes this
  // sketch by a row count; this overload samples about `sampleSize` rows per full
  // micropartition. Program code passes a rate.
  def apply(sortCols: Seq[SortCol], sampleSize: Int): QuantileSketch =
    QuantileSketch(sortCols, SampleSize.rate(sampleSize.toLong, ColumnStore.DefaultBlockRows.toLong))

  /** Row key at quantile q of the sampled sort order. */
  def quantileOf(s: QuantileSummary, q: Double): Option[RowKey] =
    if (s.rows.isEmpty) None
    else Some(s.rows(math.min(s.rows.length - 1, math.max(0, (q * s.rows.length).toInt))))
}

package repro.core

import repro.storage.ColumnarBlock

/** Stacked-histogram summary (paper App. B.1): Bx bar counts followed by
  * Bx×By subdivision counts, flattened. The normalized variant renders
  * from the same summary computed without sampling (rate = 1), since
  * small bars normalized to full height need exact subdivision counts.
  */
final case class StackedHistogramSummary(
    barCounts: Array[Long],       // length Bx
    cellCounts: Array[Long],      // length Bx*By, row-major by X bucket
    missing: Long,
    sampled: Long,
    rate: Double
) extends Serializable {
  def bx: Int = barCounts.length
  def by: Int = if (bx == 0) 0 else cellCounts.length / bx
  def cell(x: Int, y: Int): Long        = cellCounts(x * by + y)
  def estimateBar(x: Int): Double       = barCounts(x) / rate
  def estimateCell(x: Int, y: Int): Double = cell(x, y) / rate
}

/** Vizketch for stacked histograms over columns X (bars) and Y (colored
  * subdivisions, By ≤ ~20 since "the human eye cannot distinguish many
  * colors"). Sample target O(V²·Bx²·log(1/δ)); rate = 1 gives the exact
  * (normalized-capable) variant.
  */
final case class StackedHistogramSketch(
    colX: String, bucketsX: BucketSpec,
    colY: String, bucketsY: BucketSpec,
    rate: Double = 1.0
) extends Sketch[StackedHistogramSummary] {
  require(rate > 0 && rate <= 1.0, s"rate must be in (0,1]: $rate")
  def name            = "stacked"
  override def params = f"$colX,${bucketsX.params},$colY,${bucketsY.params},r=$rate%.8f"

  def zero = StackedHistogramSummary(
    new Array[Long](bucketsX.count),
    new Array[Long](bucketsX.count * bucketsY.count), 0L, 0L, rate)

  def summarize(block: ColumnarBlock, ctx: LeafCtx): StackedHistogramSummary = {
    val cx    = block.column(colX)
    val cy    = block.column(colY)
    val by    = bucketsY.count
    val bars  = new Array[Long](bucketsX.count)
    val cells = new Array[Long](bucketsX.count * by)
    var miss  = 0L
    var n     = 0L
    block.foreachSampledRow(rate, ctx.rng) { i =>
      n += 1
      val x = bucketsX.indexOf(cx, i)
      if (x < 0) miss += 1
      else {
        bars(x) += 1
        val y = bucketsY.indexOf(cy, i)
        if (y >= 0) cells(x * by + y) += 1
      }
    }
    StackedHistogramSummary(bars, cells, miss, n, rate)
  }

  def merge(a: StackedHistogramSummary, b: StackedHistogramSummary): StackedHistogramSummary = {
    require(a.rate == b.rate, "rate mismatch in merge")
    StackedHistogramSummary(Counts.add(a.barCounts, b.barCounts), Counts.add(a.cellCounts, b.cellCounts),
      a.missing + b.missing, a.sampled + b.sampled, a.rate)
  }
}

package repro.core

import repro.storage.ColumnarBlock

/** Summary shared by histogram-family vizketches: per-bucket counts plus
  * sampling metadata. `merge` adds counts — vectors are tiny (O(screen))
  * by construction, so merging is O(1) w.r.t. the data (§4.3).
  *
  * @param counts   per-bucket counts (of sampled rows when rate < 1)
  * @param outOfRange rows outside the bucket range (sampled scale)
  * @param missing  rows with a missing value (sampled scale)
  * @param sampled  number of rows inspected
  * @param rate     Bernoulli sampling rate used (1.0 = full scan)
  */
final case class HistogramSummary(
    counts: Array[Long],
    outOfRange: Long,
    missing: Long,
    sampled: Long,
    rate: Double
) extends Serializable {
  /** Unbiased estimate of the true count in bucket b. */
  def estimate(b: Int): Double = counts(b) / rate
  def estimates: Array[Double] = counts.map(_ / rate)
  def totalInRange: Long       = counts.sum
}

object HistogramSummary {
  def zero(buckets: Int, rate: Double): HistogramSummary =
    HistogramSummary(new Array[Long](buckets), 0L, 0L, 0L, rate)

  def add(a: HistogramSummary, b: HistogramSummary): HistogramSummary = {
    require(a.rate == b.rate, s"sampling rate mismatch in merge: ${a.rate} vs ${b.rate}")
    HistogramSummary(Counts.add(a.counts, b.counts), a.outOfRange + b.outOfRange,
      a.missing + b.missing, a.sampled + b.sampled, a.rate)
  }
}

/** Histogram vizketch (App. B.1). It inspects a Bernoulli(rate) sample of
  * the member rows; rate = 1 is the streaming histogram, which scans every
  * member row and has no error. With a target of O(V²·log(1/δ)) samples
  * the rendered bar heights are within half a pixel w.h.p. (§4.3,
  * Theorem 3), independent of the dataset size.
  */
final case class HistogramSketch(col: String, buckets: BucketSpec, rate: Double = 1.0)
    extends Sketch[HistogramSummary] {
  require(rate > 0 && rate <= 1.0, s"rate must be in (0,1]: $rate")
  def name            = "histogram"
  override def params = f"$col,${buckets.params},r=$rate%.8f"
  def zero            = HistogramSummary.zero(buckets.count, rate)

  def summarize(block: ColumnarBlock, ctx: LeafCtx): HistogramSummary = {
    val counts  = new Array[Long](buckets.count)
    val c       = block.column(col)
    var oor     = 0L
    var miss    = 0L
    var sampled = 0L
    block.foreachSampledRow(rate, ctx.rng) { i =>
      sampled += 1
      if (c.isMissing(i)) miss += 1
      else {
        val b = buckets.indexOf(c, i)
        if (b >= 0) counts(b) += 1 else oor += 1
      }
    }
    HistogramSummary(counts, oor, miss, sampled, rate)
  }

  def merge(a: HistogramSummary, b: HistogramSummary) = HistogramSummary.add(a, b)
}

// The end-to-end benchmark (perfbench/) keeps its sources fixed across program
// changes so that its numbers compare between commits, and it still builds the
// histogram by its two former class names; these factories keep it compiling.
object StreamingHistogramSketch { def apply(col: String, b: BucketSpec) = HistogramSketch(col, b) }
object SampledHistogramSketch { def apply(col: String, b: BucketSpec, rate: Double) = HistogramSketch(col, b, rate) }

/** CDF vizketch (App. B.1): a histogram with one bucket per horizontal
  * pixel; the rendering accumulates the buckets. Sampled with the CDF
  * sample bound; exact when rate = 1.
  */
object CdfSketch {
  def apply(col: String, min: Double, max: Double, hPixels: Int, rate: Double): HistogramSketch =
    HistogramSketch(col, NumericBuckets(min, max, hPixels), rate)
}

/** Rendering: summary → pixels, the graphics half of a vizketch (§4.2). */
object Render {

  /** Bar heights in pixels: tallest bar = V (paper Fig. 3a). */
  def histogramPixels(s: HistogramSummary, v: Int): Array[Int] = {
    val est  = s.estimates
    val most = est.foldLeft(0.0)(math.max) // 0 for a chart with no buckets
    if (most <= 0) new Array[Int](est.length)
    else est.map(e => math.round(e / most * v).toInt)
  }

  /** CDF pixel heights in 0..V for each horizontal pixel (Fig. 13a). */
  def cdfPixels(s: HistogramSummary, v: Int): Array[Int] = {
    val total = s.totalInRange + s.outOfRange // missing excluded from cdf
    val out   = new Array[Int](s.counts.length)
    if (total == 0) return out
    var acc = 0.0
    var i   = 0
    while (i < out.length) {
      acc += s.counts(i)
      out(i) = math.round(acc / (s.sampled - s.missing).max(1L) * v).toInt
      i += 1
    }
    out
  }

  /** Normalized stacked histogram (App. B.1): every bar scaled to full
    * height V, subdivisions proportional to within-bar shares. Requires an
    * unsampled summary — a small bar normalized to full height would
    * amplify sampling error past the pixel bound.
    */
  def normalizedStackedPixels(s: StackedHistogramSummary, v: Int): Array[Array[Int]] = {
    require(s.rate >= 1.0, "normalized stacked histograms must be computed without sampling")
    Array.tabulate(s.bx) { x =>
      val bar = s.barCounts(x).toDouble
      if (bar <= 0) new Array[Int](s.by)
      else {
        // Cumulative rounding so subdivision pixels sum exactly to V.
        var acc     = 0.0
        var prevPix = 0
        Array.tabulate(s.by) { y =>
          acc += s.cell(x, y) / bar * v
          val next = math.round(acc).toInt
          val h    = next - prevPix
          prevPix = next
          h
        }
      }
    }
  }

  /** Color index in 0..colors-1 for each heatmap bin, linear scale. */
  def heatmapColors(est: Array[Double], colors: Int): Array[Int] = {
    val most = est.max
    if (most <= 0) new Array[Int](est.length)
    else est.map(e => math.min(colors - 1, (e / most * colors).toInt))
  }
}

package repro.spreadsheet

import scala.reflect.ClassTag
import repro.core._
import repro.engine.{ComputationCache, ExecutionTree, Partial}
import repro.storage.CachedTable

/** Timing and traffic of one visualization: preparation-phase time (first
  * execution tree, often served by the computation cache), time to first
  * partial at the root, total time, and root-received bytes (§5.3, §7.1).
  */
final case class RunInfo(
    prepMs: Double,
    firstPartialMs: Double,
    totalMs: Double,
    rootBytes: Long,
    updates: Int
) {
  def +(o: RunInfo): RunInfo =
    RunInfo(prepMs + o.prepMs, firstPartialMs, totalMs + o.totalMs,
      rootBytes + o.rootBytes, updates + o.updates)
}

final case class Viz[R](result: R, info: RunInfo)

/** The spreadsheet layer: every user-facing operation is one or two
  * execution trees over vizketches (§5.3, Fig. 14). The first tree
  * computes data-wide parameters (range, distinct values) — cached since
  * deterministic; the second computes the visualization summary with
  * resolution-derived parameters, delivered progressively.
  */
final class Spreadsheet(val cache: ComputationCache, val defaultV: Int = 200,
                        val defaultH: Int = 200, val heatBins: Int = 66) {

  // ---------- preparation-phase sketches (cached) ----------

  /** Column range/moments — the preparation tree of every numeric chart. */
  def range(t: CachedTable, col: String): MomentsSummary = {
    val sk = MomentsSketch(col)
    cache.getOrCompute(t.id, sk.cacheKey)(ExecutionTree.run(t, sk))
  }

  /** Distinct-strings summary — the preparation tree of string charts. */
  def stringRange(t: CachedTable, col: String): StringBucketsSummary = {
    val sk = StringBucketsSketch(col)
    cache.getOrCompute(t.id, sk.cacheKey)(ExecutionTree.run(t, sk))
  }

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, (System.nanoTime() - t0) / 1e6)
  }

  private def progressive[S: ClassTag](t: CachedTable, sk: Sketch[S], seed: Long,
                                       prepMs: Double): Viz[S] = {
    val r = ExecutionTree.runProgressive(t, sk, seed)
    Viz(r.finalValue,
      RunInfo(prepMs, prepMs + r.firstPartialMs, prepMs + r.totalMs, r.totalBytes, r.updates))
  }

  // ---------- charts ----------

  /** Histogram over a numeric column (O5-style without the cdf). */
  def histogram(t: CachedTable, col: String, buckets: Int = 100, v: Int = 0,
                sampled: Boolean = true, seed: Long = 1): Viz[HistogramSummary] = {
    val vv          = if (v > 0) v else defaultV
    val (m, prepMs) = timed(range(t, col))
    val bk          = NumericBuckets(m.min, m.max, buckets)
    val rate        = if (sampled) SampleSize.rate(SampleSize.histogram(vv), m.present) else 1.0
    progressive(t, HistogramSketch(col, bk, rate), seed, prepMs)
  }

  /** Range + (histogram & cdf) in one render tree — operation O5. */
  def histogramWithCdf(t: CachedTable, col: String, buckets: Int = 100, v: Int = 0,
                       h: Int = 0, sampled: Boolean = true,
                       seed: Long = 1): Viz[(HistogramSummary, HistogramSummary)] = {
    val vv          = if (v > 0) v else defaultV
    val hh          = if (h > 0) h else defaultH
    val (m, prepMs) = timed(range(t, col))
    val histRate    = if (sampled) SampleSize.rate(SampleSize.histogram(vv), m.present) else 1.0
    val cdfRate     = if (sampled) SampleSize.rate(SampleSize.cdf(vv), m.present) else 1.0
    val hist        = HistogramSketch(col, NumericBuckets(m.min, m.max, buckets), histRate)
    val sk          = ZipSketch(hist, CdfSketch(col, m.min, m.max, hh, cdfRate))
    progressive(t, sk, seed, prepMs)
  }

  /** Distinct + range + histogram for string data — operation O7. The
    * preparation tree finds the distinct values / bucket boundaries.
    */
  def stringHistogram(t: CachedTable, col: String, maxBuckets: Int = 50,
                      seed: Long = 1): Viz[(BucketSpec, HistogramSummary)] = {
    val (s, prepMs) = timed(stringRange(t, col))
    val bk          = StringBucketsSketch.toBuckets(s, maxBuckets)
    val viz         = progressive(t, HistogramSketch(col, bk), seed, prepMs)
    Viz((bk, viz.result), viz.info)
  }

  /** Range + (stacked histogram & cdf) — operation O10. Y groups come from
    * the cached string summary, capped at ~20 colors (§4.3).
    */
  def stackedHistogramWithCdf(t: CachedTable, colX: String, colY: String,
                              bx: Int = 50, maxColors: Int = 20, v: Int = 0, h: Int = 0,
                              sampled: Boolean = true,
                              seed: Long = 1): Viz[(StackedHistogramSummary, HistogramSummary)] = {
    val vv           = if (v > 0) v else defaultV
    val hh           = if (h > 0) h else defaultH
    val (mx, p1)     = timed(range(t, colX))
    val (sy, p2)     = timed(stringRange(t, colY))
    val yBuckets     = StringBucketsSketch.toBuckets(sy, maxColors)
    val rate         = if (sampled) SampleSize.rate(SampleSize.stackedHistogram(vv), mx.present) else 1.0
    val cdfRate      = if (sampled) SampleSize.rate(SampleSize.cdf(vv), mx.present) else 1.0
    val stacked      = StackedHistogramSketch(colX, NumericBuckets(mx.min, mx.max, bx), colY, yBuckets, rate)
    val sk           = ZipSketch(stacked, CdfSketch(colX, mx.min, mx.max, hh, cdfRate))
    progressive(t, sk, seed, p1 + p2)
  }

  /** Heat map over two numeric columns — operation O11. The sample bound
    * is quadratic in the bin count, so the implied rate usually saturates
    * to a full scan (the paper's O11 likewise moves the most data).
    */
  def heatmap(t: CachedTable, colX: String, colY: String, bins: Int = 0,
              colors: Int = 20, seed: Long = 1): Viz[HeatmapSummary] = {
    val b        = if (bins > 0) bins else heatBins
    val (mx, p1) = timed(range(t, colX))
    val (my, p2) = timed(range(t, colY))
    val pMax     = 1.0 / (b * 4.0) // optimistic density guess; capped below anyway
    val rate     = SampleSize.rate(SampleSize.heatmap(colors, pMax), mx.present)
    val sk = HeatmapSketch(colX, NumericBuckets(mx.min, mx.max, b),
      colY, NumericBuckets(my.min, my.max, b), rate)
    progressive(t, sk, seed, p1 + p2)
  }

  /** Trellis of heatmaps grouped by a categorical column. */
  def trellisHeatmap(t: CachedTable, colW: String, colX: String, colY: String,
                     groups: Int = 4, binsPerPlot: Int = 33,
                     seed: Long = 1): Viz[TrellisSummary] = {
    val (sw, p0) = timed(stringRange(t, colW))
    val (mx, p1) = timed(range(t, colX))
    val (my, p2) = timed(range(t, colY))
    val wBuckets = StringBucketsSketch.toBuckets(sw, groups)
    val sk = TrellisHeatmapSketch(colW, wBuckets,
      colX, NumericBuckets(mx.min, mx.max, binsPerPlot),
      colY, NumericBuckets(my.min, my.max, binsPerPlot))
    progressive(t, sk, seed, p0 + p1 + p2)
  }

  // ---------- tabular view ----------

  /** Next page of the tabular view under a sort order — operations O1–O3. */
  def nextItems(t: CachedTable, sortCols: Seq[SortCol], k: Int = 20,
                start: Option[RowKey] = None, seed: Long = 1): Viz[NextItemsSummary] =
    progressive(t, NextItemsSketch(sortCols, k, start), seed, 0.0)

  /** Scroll bars are ~100 px tall; App. C.1 notes O(V²) samples give
    * constant success probability at ε = 1/(2V).
    */
  val defaultScrollV = 100

  /** Scroll-bar jump: quantile tree, then next-items tree — operation O4
    * and the "moving scrollbar" row of Fig. 14.
    */
  def quantileThenNext(t: CachedTable, sortCols: Seq[SortCol], q: Double,
                       k: Int = 20, v: Int = 0, seed: Long = 1): Viz[NextItemsSummary] = {
    val vv   = if (v > 0) v else defaultScrollV
    val rate = SampleSize.rate(SampleSize.quantile(vv), t.numRows)
    val qv   = progressive(t, QuantileSketch(sortCols, rate), seed, 0.0)
    val at   = QuantileSketch.quantileOf(qv.result, q)
    val nx   = progressive(t, NextItemsSketch(sortCols, k, at), seed + 1, 0.0)
    Viz(nx.result, qv.info + nx.info)
  }

  /** Find the next row matching a text criterion (Fig. 14 "find text"). */
  def findText(t: CachedTable, col: String, pattern: String, mode: TextMatchMode,
               caseSensitive: Boolean, sortCols: Seq[SortCol],
               start: Option[RowKey] = None, seed: Long = 1): Viz[FindTextSummary] =
    progressive(t, FindTextSketch(col, pattern, mode, caseSensitive, sortCols, start), seed, 0.0)

  // ---------- analyses ----------

  /** Sampling heavy hitters — operation O8. */
  def heavyHittersSampling(t: CachedTable, col: String, k: Int = 20,
                           seed: Long = 1): Viz[Seq[(String, Double)]] = {
    val rate = SampleSize.rate(SampleSize.heavyHitters(k), t.numRows)
    val viz  = progressive(t, SamplingHeavyHittersSketch(col, rate), seed, 0.0)
    Viz(HeavyHitters.select(viz.result, k), viz.info)
  }

  /** Misra–Gries heavy hitters (exact counts for small domains). */
  def heavyHittersStreaming(t: CachedTable, col: String, k: Int = 20,
                            seed: Long = 1): Viz[Seq[(String, Double)]] = {
    val viz = progressive(t, MisraGriesSketch(col, math.max(k * 5, 100)), seed, 0.0)
    Viz(HeavyHitters.top(viz.result, k), viz.info)
  }

  /** Approximate distinct count — operation O9. */
  def distinctCount(t: CachedTable, col: String, seed: Long = 1): Viz[Double] = {
    val viz = progressive(t, HllSketch(col), seed, 0.0)
    Viz(viz.result.estimate, viz.info)
  }

  /** PCA of M numeric columns to k components (Fig. 14). */
  def pca(t: CachedTable, cols: Seq[String], k: Int, sampled: Boolean = true,
          seed: Long = 1): Viz[Pca.Result] = {
    val rate = if (sampled) SampleSize.rate(200000L, t.numRows) else 1.0
    val viz  = progressive(t, PcaSketch(cols, rate), seed, 0.0)
    Viz(Pca.topComponents(viz.result, k), viz.info)
  }
}

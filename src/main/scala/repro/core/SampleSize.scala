package repro.core

/** Sample-size targets derived from the display resolution (paper §4.3 and
  * Appendix C, Theorems 1–4). All are independent of the dataset size —
  * this is what makes sampled vizketches scale super-linearly (§7.2).
  *
  * The asymptotic bounds hide constants; the paper notes (App. C.2) that
  * "using CV² samples for constant C works well in practice". We expose
  * the constants so tests can tighten or relax them.
  */
object SampleSize {

  /** Histogram with V-pixel bars: µ-approximate rendering needs
    * O(V²/(µ·p_max)² · log(1/δ)) samples; with µ, p_max constant this is
    * C·V²·log(1/δ) (Theorem 3).
    */
  def histogram(v: Int, delta: Double = 0.01, c: Double = 1.0): Long =
    math.ceil(c * v.toLong * v * math.log(1.0 / delta)).toLong

  /** CDF over H pixels with V-pixel height: accuracy 1/2V per pixel needs
    * O(V² log(1/δ)) samples (App. B.1 / C.2).
    */
  def cdf(v: Int, delta: Double = 0.01, c: Double = 1.0): Long =
    histogram(v, delta, c)

  /** Stacked histogram: worst-case subdivision is a whole bar, so the
    * histogram bound applies (App. B.1).
    */
  def stackedHistogram(v: Int, delta: Double = 0.01, c: Double = 1.0): Long =
    histogram(v, delta, c)

  /** Heat map with c≈20 colors and p_max ≥ pMaxGuess: O(C²/p_max²)
    * samples (App. C.2). Callers cap the implied rate at 1, which makes
    * dense heatmaps fall back to a full scan — matching the paper's note
    * that O11 carries considerably more data.
    */
  def heatmap(colors: Int = 20, pMaxGuess: Double, delta: Double = 0.01): Long =
    math.ceil(colors.toLong * colors / (pMaxGuess * pMaxGuess) * math.log(1.0 / delta)).toLong

  /** Quantile for a V-pixel scroll bar. Theorem 2 bounds ε = 1/(2V) with
    * O(V² log(1/δ)) samples; App. C.1 notes that O(V²) samples give
    * constant success probability and C·V² works in practice, so the target
    * is the practical V², capped at 100,000 rows.
    */
  def quantile(v: Int): Long = math.min(v.toLong * v, 100000L)

  /** Sampling heavy hitters with threshold 1/K: n = K² log(K/δ)
    * (Theorem 4 with α = 1/K).
    */
  def heavyHitters(k: Int, delta: Double = 0.01): Long =
    math.ceil(k.toLong * k * math.log(k / delta)).toLong

  /** Bernoulli rate that yields ~target samples out of totalRows; capped
    * at 1 (full scan) when the dataset is small — "as we add more data,
    * vizketches can sample more aggressively" (§4.4 Scalability).
    */
  def rate(target: Long, totalRows: Long): Double =
    if (totalRows <= 0L || target >= totalRows) 1.0
    else target.toDouble / totalRows.toDouble
}

package repro.perfbench

/** Order statistics and interval arithmetic used to turn raw samples and
  * spans into the benchmark's metrics.
  */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }

  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of no samples")
    xs.sum / xs.length
  }

  /** A tail latency: the value at `percentile`, taken from `n` samples. */
  final case class Tail(percentile: Double, value: Double, n: Int)

  /** The highest percentile that still has at least `beyond` samples above
    * it: with `n` samples sorted ascending, the value at rank `n - beyond`
    * (1-based), whose percentile is `100 * (n - beyond) / n`. Reporting
    * this rank rather than a fixed p99 keeps the tail backed by enough
    * samples to be repeatable. `None` when there are not more than
    * `beyond` samples.
    */
  def tail(xs: Seq[Double], beyond: Int = 10): Option[Tail] = {
    val n = xs.length
    if (n <= beyond) None
    else {
      val rank = n - beyond
      Some(Tail(100.0 * rank / n, xs.sorted.apply(rank - 1), n))
    }
  }

  /** Total length covered by a set of half-open intervals `[start, end)`,
    * counting overlapping parts once.
    */
  def unionLength(intervals: Seq[(Long, Long)]): Long = {
    var covered = 0L
    var curS    = Long.MinValue
    var curE    = Long.MinValue
    for ((s, e) <- intervals.filter(iv => iv._2 > iv._1).sortBy(_._1)) {
      if (s > curE) {
        if (curE > curS) covered += curE - curS
        curS = s
        curE = e
      } else if (e > curE) curE = e
    }
    if (curE > curS) covered += curE - curS
    covered
  }

  /** Self time of a span: its duration minus the part of it that its
    * children cover (children are clipped to the parent first).
    */
  def selfTime(parent: (Long, Long), children: Seq[(Long, Long)]): Long = {
    val (ps, pe) = parent
    val clipped  = children.map { case (s, e) => (math.max(s, ps), math.min(e, pe)) }
    math.max(0L, (pe - ps) - unionLength(clipped))
  }
}

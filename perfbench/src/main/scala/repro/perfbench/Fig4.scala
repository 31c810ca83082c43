package repro.perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._
import repro.spreadsheet.{Ops, RunInfo, Spreadsheet}
import repro.storage.{CachedTable, ColumnarBlock, RowPred}

/** What one action reported besides its wall time, and the check of its
  * output, which the loop runs after stopping the clock. `prepMs` and
  * `firstPartialMs` are NaN when the action does not report them.
  */
final case class Outcome(prepMs: Double, firstPartialMs: Double, check: () => Option[String])

object Outcome {
  /** The first failed condition's message, if any. */
  def of(info: RunInfo)(conditions: => Seq[(Boolean, String)]): Outcome =
    Outcome(info.prepMs, info.firstPartialMs, () => conditions.collectFirst { case (false, why) => why })
}

/** The Fig. 4 operations O1–O11 with output checks.
  *
  * Each operation makes the same `Spreadsheet` call with the same
  * arguments as `spreadsheet.Ops`. `Ops` returns only a text note, while
  * the checks need the typed result and the per-layer metrics need the
  * `RunInfo` (preparation time, first partial), so the calls are made
  * here. Workloads take their operation names from `Ops.all` and
  * `Ops.coldOps`, so an operation added there and not here fails loudly.
  */
object Fig4 {

  /** Ground truth computed from the source DataFrame, outside any timing. */
  final case class Expected(rows: Long, minDepDelay: Double, minCarrier: String, depDelayPresent: Long,
                            distinctFlightNum: Long, delayedRows: Long, delayedArrPresent: Long)

  def expected(df: DataFrame): Expected = {
    val delayed = col("DepDelay") > 0.0
    val r = df.agg(count(lit(1)), min("DepDelay"), min("Carrier"), count("DepDelay"),
      countDistinct("FlightNum"), sum(when(delayed, 1L).otherwise(0L)),
      sum(when(delayed && col("ArrDelay").isNotNull, 1L).otherwise(0L))).head()
    Expected(r.getLong(0), r.getDouble(1), r.getString(2), r.getLong(3), r.getLong(4), r.getLong(5), r.getLong(6))
  }

  /** The predicate `Ops.o6` filters with. */
  object Delayed extends RowPred {
    def apply(b: ColumnarBlock, i: Int): Boolean = b.column("DepDelay").asDouble(i) > 0.0
  }

  /** A histogram's in-range total must equal `n` when it scanned every
    * row, and be within five standard deviations of `n` when it sampled
    * (the Theorem 1 bound on a Bernoulli sample's count).
    */
  def totalOk(h: HistogramSummary, n: Long): Boolean =
    if (h.rate >= 1.0) h.totalInRange == n
    else math.abs(h.totalInRange / h.rate - n) <= 5.0 * math.sqrt(n * (1.0 - h.rate) / h.rate)

  /** HyperLogLog with 2^p registers: relative standard error 1.04/√(2^p);
    * the check allows four of them.
    */
  def hllOk(estimate: Double, exact: Long, p: Int = 12): Boolean =
    math.abs(estimate - exact) <= 4.0 * 1.04 / math.sqrt((1 << p).toDouble) * exact

  private def firstCell(r: NextItemsSummary): Option[KeyCell] = r.rows.headOption.flatMap(_._1.cells.headOption)

  def run(name: String, s: Spreadsheet, t: CachedTable, e: Expected): Outcome = name match {
    case "O1" =>
      val v = s.nextItems(t, Seq(SortCol("DepDelay")))
      Outcome.of(v.info)(Seq((firstCell(v.result) == Some(NumCell(e.minDepDelay)),
        s"O1 first row ${firstCell(v.result)}, want ${e.minDepDelay}")))
    case "O2" =>
      val v = s.nextItems(t, Ops.SortCols5)
      Outcome.of(v.info)(Seq((v.result.rows.nonEmpty, "O2 returned no rows")))
    case "O3" =>
      val v = s.nextItems(t, Seq(SortCol("Carrier")))
      Outcome.of(v.info)(Seq((firstCell(v.result) == Some(StrCell(e.minCarrier)),
        s"O3 first row ${firstCell(v.result)}, want ${e.minCarrier}")))
    case "O4" =>
      val v = s.quantileThenNext(t, Ops.SortCols5, 0.5)
      Outcome.of(v.info)(Seq((v.result.rows.nonEmpty, "O4 returned no rows")))
    case "O5" =>
      val v      = s.histogramWithCdf(t, "DepDelay")
      val (h, c) = v.result
      Outcome.of(v.info)(Seq(
        (totalOk(h, e.depDelayPresent), s"O5 histogram total ${h.totalInRange} at rate ${h.rate}, want ${e.depDelayPresent}"),
        (totalOk(c, e.depDelayPresent), s"O5 cdf total ${c.totalInRange} at rate ${c.rate}, want ${e.depDelayPresent}")))
    case "O6" =>
      val t0       = System.nanoTime()
      val filtered = t.filter("delayed", Delayed).warm()
      val filterMs = (System.nanoTime() - t0) / 1e6
      val kept     = filtered.numRows
      val v        = try s.histogramWithCdf(filtered, "ArrDelay") finally filtered.drop()
      val (h, c)   = v.result
      Outcome.of(v.info.copy(prepMs = filterMs + v.info.prepMs,
        firstPartialMs = filterMs + v.info.firstPartialMs))(Seq(
        (kept == e.delayedRows, s"O6 kept $kept rows, want ${e.delayedRows}"),
        (totalOk(h, e.delayedArrPresent), s"O6 histogram total ${h.totalInRange}, want ${e.delayedArrPresent}"),
        (totalOk(c, e.delayedArrPresent), s"O6 cdf total ${c.totalInRange}, want ${e.delayedArrPresent}")))
    case "O7" =>
      val v = s.stringHistogram(t, "Origin")
      Outcome.of(v.info)(Seq((v.result._2.totalInRange == e.rows,
        s"O7 bucket total ${v.result._2.totalInRange}, want ${e.rows}")))
    case "O8" =>
      val v = s.heavyHittersSampling(t, "Origin", 20)
      Outcome.of(v.info)(Seq((v.result.nonEmpty, "O8 found no heavy hitters")))
    case "O9" =>
      val v = s.distinctCount(t, "FlightNum")
      Outcome.of(v.info)(Seq((hllOk(v.result, e.distinctFlightNum),
        f"O9 estimate ${v.result}%.0f, exact ${e.distinctFlightNum}")))
    case "O10" =>
      val v = s.stackedHistogramWithCdf(t, "DepHour", "Carrier")
      Outcome.of(v.info)(Seq((v.result._1.bx > 0, "O10 drew no bars")))
    case "O11" =>
      val v = s.heatmap(t, "DepDelay", "ArrDelay")
      Outcome.of(v.info)(Seq((v.result.cells.exists(_ > 0), "O11 drew an empty heat map")))
  }
}

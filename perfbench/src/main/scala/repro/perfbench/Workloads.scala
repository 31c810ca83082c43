package repro.perfbench

import java.io.File
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.engine.ComputationCache
import repro.harness.Datasets
import repro.spreadsheet.{Ops, Questions, Spreadsheet}
import repro.storage.{CachedTable, ColumnStore}
import scala.collection.mutable.ArrayBuffer

/** One user action: its name (O1…O11, Q1…Q20) and how to perform it. */
final case class Action(name: String, run: () => Outcome)

/** A workload: its inputs, its ready table, and the actions of one pass
  * of the closed loop.
  */
trait Workload {
  def name: String

  /** Builds the inputs (untimed), then the ready table several times;
    * returns the seconds each set-up took. The last table is kept.
    */
  def setup(): Seq[Double]

  /** The actions of one pass of the loop. */
  def pass(): Seq[Action]

  /** Seconds one pass took on the reference machine (4 cores). */
  def passSeconds: Double

  /** Passes in a run of `seconds`. The count depends on nothing measured,
    * so every run, on every commit, rates the same actions and its tail
    * percentile is the same one.
    */
  def passes(seconds: Double): Int = math.max(1, math.round(seconds / passSeconds).toInt)

  /** Spreadsheet actions the loop does not run, performed once in a
    * traced run so every `spreadsheet.*` layer metric has a value.
    */
  def otherActions(): Seq[Action]

  /** Hits and misses of every computation cache the workload has used. */
  def cacheCounts: (Long, Long) = (caches.map(_.hitCount).sum, caches.map(_.missCount).sum)

  /** Facts about the inputs for the machine record. */
  def record: Seq[(String, Json.Value)]

  protected val caches = ArrayBuffer.empty[ComputationCache]
  protected def sheet(): Spreadsheet = { val c = new ComputationCache(); caches += c; new Spreadsheet(c) }
}

/** Ground truth for the case-study questions that have one. */
final case class QuestionTruth(moreLate: String, leastDelay: String, mostCancelled: String,
                               stopped: Seq[String], noLanding: Long)

object Workloads {

  val names: Seq[String] = Seq("fig4-warm", "fig4-cold", "casestudy")

  /** Unmeasured warm-up before the loop, at least two passes. The JIT
    * keeps speeding the actions up for several seconds; measuring before
    * it settles adds a trend that differs from run to run.
    */
  val WarmupSeconds = 3.0

  /** Set-ups per run; `setup_s` reports their median. */
  val SetupReps = 3

  /** `traced` workloads also prepare the checks of [[Workload.otherActions]]. */
  def apply(name: String, spark: SparkSession, seed: Long, work: File, traced: Boolean): Workload = name match {
    case "fig4-warm" => new WarmWorkload(spark, seed, name, 1_000_000L, 0.6, casestudy = false, traced)
    case "casestudy" => new WarmWorkload(spark, seed, name, 1_000_000L, 1.25, casestudy = true, traced)
    case "fig4-cold" => new ColdWorkload(spark, seed, 100_000L, 2.5, work, traced)
    case other       => throw new IllegalArgumentException(s"unknown workload $other; have ${names.mkString(", ")}")
  }

  /** The generated flights table, cached in Spark as the data source. */
  def source(spark: SparkSession, rows: Long, seed: Long): DataFrame = {
    val df = Datasets.flightsDf(spark, rows, seed).persist(StorageLevel.MEMORY_ONLY)
    df.count()
    df
  }

  def truth(df: DataFrame): QuestionTruth = {
    val carriers = df.groupBy("Carrier").agg(
      (sum(when(col("DepDelay") > 15.0, 1L).otherwise(0L)) / count(lit(1))).as("late"),
      avg("DepDelay").as("delay"), sum("Cancelled").as("cancelled"),
      datediff(max("FlightDate"), lit(repro.data.Flights.StartDate)).as("lastDay")).collect()
    def by(c: String) = carriers.map(r => r.getString(0) -> r.getAs[Number](c).doubleValue).toMap
    val late = by("late")
    val (first, last) = {
      val r = df.agg(datediff(min("FlightDate"), lit(repro.data.Flights.StartDate)),
        datediff(max("FlightDate"), lit(repro.data.Flights.StartDate))).head()
      (r.getInt(0), r.getInt(1))
    }
    QuestionTruth(
      moreLate = if (late("UA") > late("AA")) "UA" else "AA",
      leastDelay = by("delay").minBy(_._2)._1,
      mostCancelled = by("cancelled").maxBy(_._2)._1,
      // Q19 calls a carrier stopped when it is silent for the last tenth
      // of the period.
      stopped = by("lastDay").filter(_._2 < last - 0.1 * (last - first)).keys.toSeq.sorted,
      noLanding = df.filter(col("Cancelled") === 0 && col("Diverted") === 0 && col("ArrDelay").isNull).count())
  }

  /** Checks the questions whose answers the data determines. */
  def checkAnswer(q: String, answer: String, t: QuestionTruth): Option[String] = {
    val ok = q match {
      case "Q1"  => answer.startsWith(t.moreLate)
      case "Q2"  => answer.startsWith(t.leastDelay)
      case "Q9"  => answer.startsWith(t.mostCancelled)
      case "Q19" => answer == s"${t.stopped.size} (${t.stopped.mkString(",")})"
      case "Q20" =>
        if (t.noLanding == 0) answer.contains("cannot determine") else answer == s"${t.noLanding} candidate rows"
      case _     => answer.nonEmpty
    }
    if (ok) None else Some(s"$q answered '$answer'")
  }

  def questions(s: => Spreadsheet, t: => CachedTable, truth: QuestionTruth): Seq[Action] = {
    lazy val sheet = s
    Questions.all.map { case (q, fn) =>
      Action(q, () => {
        val a = fn(sheet, t)
        Outcome(Double.NaN, Double.NaN, () => checkAnswer(q, a.text, truth))
      })
    }
  }

  def fig4(names: Seq[String], s: => Spreadsheet, t: => CachedTable, e: Fig4.Expected): Seq[Action] = {
    lazy val sheet = s
    names.map(n => Action(n, () => Fig4.run(n, sheet, t, e)))
  }

  def timedSec[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = f
    (a, (System.nanoTime() - t0) / 1e9)
  }
}

/** `fig4-warm` (O1–O11 over one shared spreadsheet, as in T2) and
  * `casestudy` (Q1–Q20 with a fresh computation cache per pass, as in
  * T7), both over a warm columnar table ingested from the cached source.
  */
final class WarmWorkload(spark: SparkSession, seed: Long, val name: String, rows: Long,
                         val passSeconds: Double, casestudy: Boolean, traced: Boolean) extends Workload {
  private var table: CachedTable         = _
  private var fig4Truth: Fig4.Expected   = _
  private var qTruth: QuestionTruth      = _
  private lazy val shared: Spreadsheet   = sheet()

  def setup(): Seq[Double] = {
    val df = Workloads.source(spark, rows, seed)
    if (traced || !casestudy) fig4Truth = Fig4.expected(df)
    if (traced || casestudy) qTruth = Workloads.truth(df)
    val times = (1 to Workloads.SetupReps).map { i =>
      if (table != null) table.drop()
      val (t, sec) = Workloads.timedSec(ColumnStore.fromDataFrame(s"flights@$name", df).warm())
      table = t
      sec
    }
    df.unpersist(blocking = true)
    times
  }

  def pass(): Seq[Action] =
    if (casestudy) Workloads.questions(sheet(), table, qTruth)
    else Workloads.fig4(Ops.all.map(_._1), shared, table, fig4Truth)

  def otherActions(): Seq[Action] =
    if (casestudy) Workloads.fig4(Ops.all.map(_._1), sheet(), table, fig4Truth)
    else Workloads.questions(sheet(), table, qTruth)

  def record: Seq[(String, Json.Value)] = Seq(
    "rows" -> Json.Num(table.numRows.toDouble),
    "blocks" -> Json.Num(table.blocks.count().toDouble),
    "leaves" -> Json.Num(table.numLeaves.toDouble))
}

/** `fig4-cold`: the cold subset of O1–O11 over a parquet copy, opened
  * afresh with a fresh spreadsheet for every action, as in T3, so every
  * tree reads the file again.
  */
final class ColdWorkload(spark: SparkSession, seed: Long, rows: Long, val passSeconds: Double, work: File,
                         traced: Boolean)
    extends Workload {
  val name = "fig4-cold"
  private val path                     = new File(work, s"cold-seed$seed.parquet").getPath
  private var fig4Truth: Fig4.Expected = _
  private var qTruth: QuestionTruth    = _

  private def open(): CachedTable = Datasets.flightsCold(spark, path, name)

  def setup(): Seq[Double] = {
    val df = Workloads.source(spark, rows, seed)
    fig4Truth = Fig4.expected(df)
    if (traced) qTruth = Workloads.truth(df)
    df.write.mode("overwrite").parquet(path)
    df.unpersist(blocking = true)
    (1 to Workloads.SetupReps).map(_ => Workloads.timedSec(open())._2)
  }

  def pass(): Seq[Action] =
    Ops.coldOps.map(_._1).flatMap(n => Workloads.fig4(Seq(n), sheet(), open(), fig4Truth))

  def otherActions(): Seq[Action] = {
    val cold = Ops.coldOps.map(_._1).toSet
    Ops.all.map(_._1).filterNot(cold).flatMap(n => Workloads.fig4(Seq(n), sheet(), open(), fig4Truth)) ++
      Workloads.questions(sheet(), open(), qTruth)
  }

  def record: Seq[(String, Json.Value)] = {
    val t = open()
    Seq("rows" -> Json.Num(t.numRows.toDouble), "blocks" -> Json.Num(t.blocks.count().toDouble),
      "leaves" -> Json.Num(t.numLeaves.toDouble))
  }
}

package repro.baseline

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.core.Serde

/** The paper's §7.1 baseline: "connect a visualization front-end to a
  * general-purpose analytics back-end … our baseline uses Spark … we
  * write queries in Scala; we pre-load all data to RAM". Each Fig. 4
  * operation is expressed in the DataFrame API; we measure the analytics
  * time (collect at the master) and the bytes the master receives (the
  * serialized collected result), exactly as the paper's bottom Fig. 5
  * metric. No vizketch machinery is used here.
  */
object SparkBaseline {

  final case class OpResult(op: String, totalMs: Double, masterBytes: Long, note: String)

  private def timedCollect(op: String, df: DataFrame, note: Array[Row] => String): OpResult = {
    val t0   = System.nanoTime()
    val rows = df.collect()
    val ms   = (System.nanoTime() - t0) / 1e6
    OpResult(op, ms, Serde.sizeOf(rows), note(rows))
  }

  private def bucketExpr(c: String, min: Double, max: Double, buckets: Int) = {
    val width = if (max > min) (max - min) / buckets else 1.0
    least(floor((col(c) - min) / width), lit(buckets - 1)).cast("int")
  }

  /** Range of a column, needed before any bucketing query (the baseline
    * pays this preparation query too, like Hillview's first tree).
    */
  private def range(df: DataFrame, c: String): (Double, Double) = {
    val r = df.agg(min(col(c)).cast("double"), max(col(c)).cast("double")).head()
    (r.getDouble(0), r.getDouble(1))
  }

  def o1(df: DataFrame): OpResult =
    timedCollect("O1", df.orderBy("DepDelay").limit(20), r => s"rows=${r.length}")

  def o2(df: DataFrame): OpResult =
    timedCollect("O2",
      df.orderBy("DepDelay", "ArrDelay", "Distance", "TaxiIn", "TaxiOut").limit(20),
      r => s"rows=${r.length}")

  def o3(df: DataFrame): OpResult =
    timedCollect("O3", df.orderBy("Carrier").limit(20), r => s"rows=${r.length}")

  def o4(df: DataFrame): OpResult = {
    val t0 = System.nanoTime()
    val q  = df.stat.approxQuantile("DepDelay", Array(0.5), 0.001)(0)
    val r = df.filter(col("DepDelay") >= q)
      .orderBy("DepDelay", "ArrDelay", "Distance", "TaxiIn", "TaxiOut").limit(20).collect()
    val ms = (System.nanoTime() - t0) / 1e6
    OpResult("O4", ms, Serde.sizeOf(r), s"median=$q")
  }

  def o5(df: DataFrame): OpResult = {
    val t0        = System.nanoTime()
    val (mn, mx)  = range(df, "DepDelay")
    val hist = df.filter(col("DepDelay").isNotNull)
      .groupBy(bucketExpr("DepDelay", mn, mx, 100).as("b")).count().collect()
    val cdf = df.filter(col("DepDelay").isNotNull)
      .groupBy(bucketExpr("DepDelay", mn, mx, 200).as("b")).count().collect()
    val ms = (System.nanoTime() - t0) / 1e6
    OpResult("O5", ms, Serde.sizeOf(hist) + Serde.sizeOf(cdf), s"bars=${hist.length}")
  }

  def o6(df: DataFrame): OpResult = {
    val t0       = System.nanoTime()
    val filtered = df.filter(col("DepDelay") > 0)
    val (mn, mx) = range(filtered, "ArrDelay")
    val hist = filtered.filter(col("ArrDelay").isNotNull)
      .groupBy(bucketExpr("ArrDelay", mn, mx, 100).as("b")).count().collect()
    val cdf = filtered.filter(col("ArrDelay").isNotNull)
      .groupBy(bucketExpr("ArrDelay", mn, mx, 200).as("b")).count().collect()
    val ms = (System.nanoTime() - t0) / 1e6
    OpResult("O6", ms, Serde.sizeOf(hist) + Serde.sizeOf(cdf), s"bars=${hist.length}")
  }

  def o7(df: DataFrame): OpResult = {
    val t0       = System.nanoTime()
    val distinct = df.select("Origin").distinct().collect()
    val hist     = df.groupBy("Origin").count().collect()
    val ms       = (System.nanoTime() - t0) / 1e6
    OpResult("O7", ms, Serde.sizeOf(distinct) + Serde.sizeOf(hist), s"distinct=${distinct.length}")
  }

  def o8(df: DataFrame): OpResult =
    timedCollect("O8", df.groupBy("Origin").count().orderBy(desc("count")).limit(20),
      r => s"top=${if (r.nonEmpty) r(0).getString(0) else "-"}")

  def o9(df: DataFrame): OpResult =
    timedCollect("O9", df.agg(countDistinct("FlightNum").as("d")),
      r => s"distinct=${r(0).getLong(0)}")

  def o10(df: DataFrame): OpResult = {
    val t0      = System.nanoTime()
    val (mn, mx) = range(df, "DepHour")
    val stacked = df.groupBy(bucketExpr("DepHour", mn, mx + 1, 24).as("b"), col("Carrier"))
      .count().collect()
    val cdf = df.groupBy(bucketExpr("DepHour", mn, mx + 1, 200).as("b")).count().collect()
    val ms = (System.nanoTime() - t0) / 1e6
    OpResult("O10", ms, Serde.sizeOf(stacked) + Serde.sizeOf(cdf), s"cells=${stacked.length}")
  }

  def o11(df: DataFrame): OpResult = {
    val t0       = System.nanoTime()
    val (mnx, mxx) = range(df, "DepDelay")
    val (mny, mxy) = range(df, "ArrDelay")
    val heat = df.filter(col("DepDelay").isNotNull && col("ArrDelay").isNotNull)
      .groupBy(bucketExpr("DepDelay", mnx, mxx, 66).as("bx"),
               bucketExpr("ArrDelay", mny, mxy, 66).as("by"))
      .count().collect()
    val ms = (System.nanoTime() - t0) / 1e6
    OpResult("O11", ms, Serde.sizeOf(heat), s"cells=${heat.length}")
  }

  val all: Seq[(String, DataFrame => OpResult)] = Seq(
    "O1" -> (o1 _), "O2" -> (o2 _), "O3" -> (o3 _), "O4" -> (o4 _), "O5" -> (o5 _),
    "O6" -> (o6 _), "O7" -> (o7 _), "O8" -> (o8 _), "O9" -> (o9 _), "O10" -> (o10 _),
    "O11" -> (o11 _),
  )
}

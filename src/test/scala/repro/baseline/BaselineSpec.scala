package repro.baseline

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.harness.Datasets

class SparkBaselineSpec extends SparkSpec {

  private lazy val df = Datasets.flightsBaseline(spark, 80000)

  for ((op, fn) <- SparkBaseline.all)
    test(s"$op baseline runs and reports bytes") {
      val r = fn(df)
      assert(r.totalMs > 0)
      assert(r.masterBytes > 0)
    }

  test("O8 baseline top airport equals exact group-by") {
    val exact = df.groupBy("Origin").count().orderBy(desc("count")).limit(1)
      .head().getString(0)
    assert(SparkBaseline.o8(df).note == s"top=$exact")
  }

  test("O9 baseline distinct equals exact countDistinct") {
    val exact = df.select(countDistinct("FlightNum")).head().getLong(0)
    assert(SparkBaseline.o9(df).note == s"distinct=$exact")
  }

  test("O7 baseline reports the true distinct airport count") {
    val exact = df.select("Origin").distinct().count()
    assert(SparkBaseline.o7(df).note == s"distinct=$exact")
  }
}

class DuckDbBaselineSpec extends org.scalatest.funsuite.AnyFunSuite {
  import repro.TestData

  test("histogram query runs on loaded data and times positively") {
    val values = TestData.randomDoubles(200000, seed = 40)
    val conn   = DuckDbBaseline.connectionWithData(values)
    try {
      DuckDbBaseline.setThreads(conn, 1)
      val ms = DuckDbBaseline.histogramMs(conn, 0, 100, 50, reps = 3, warmups = 1)
      assert(ms > 0)
    } finally conn.close()
  }

  test("loaded table has all the rows") {
    val values = TestData.randomDoubles(5000, seed = 41)
    val conn   = DuckDbBaseline.connectionWithData(values)
    try {
      val rs = conn.createStatement.executeQuery("SELECT COUNT(*) FROM t")
      rs.next()
      assert(rs.getLong(1) == 5000L)
    } finally conn.close()
  }

  test("histogram buckets agree with a vizketch over the same data") {
    import repro.core._
    val values = TestData.randomDoubles(50000, seed = 42)
    val sketch = TestData.sketchAll(StreamingHistogramSketch("x", NumericBuckets(0, 100, 10)),
      TestData.splitBlocks(values, 4))
    val conn = DuckDbBaseline.connectionWithData(values)
    try {
      val rs = conn.createStatement.executeQuery(
        """SELECT LEAST(CAST(FLOOR(x / 10.0) AS INTEGER), 9) AS b, COUNT(*) AS c
          |FROM t WHERE x >= 0 AND x <= 100 GROUP BY b ORDER BY b""".stripMargin)
      val db = Iterator.continually(rs).takeWhile(_.next()).map(r => (r.getInt(1), r.getLong(2))).toMap
      (0 until 10).foreach(b => assert(sketch.counts(b) == db.getOrElse(b, 0L), s"bucket $b"))
    } finally conn.close()
  }
}

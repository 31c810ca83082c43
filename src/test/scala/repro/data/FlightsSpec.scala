package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec

class FlightsSpec extends SparkSpec {

  private lazy val df = Flights.gen(spark, 100000, seed = 7).cache()

  test("generates the requested number of rows and all columns") {
    assert(df.count() == 100000L)
    assert(df.columns.toSeq == Flights.ColumnNames)
  }

  test("generation is deterministic in (rows, seed)") {
    val a = Flights.gen(spark, 5000, seed = 7).agg(sum("Distance"), sum("FlightNum")).head()
    val b = Flights.gen(spark, 5000, seed = 7).agg(sum("Distance"), sum("FlightNum")).head()
    assert(a == b)
    val c = Flights.gen(spark, 5000, seed = 8).agg(sum("Distance"), sum("FlightNum")).head()
    assert(a != c)
  }

  test("carriers and airports come from the declared domains") {
    val carriers = df.select("Carrier").distinct().collect().map(_.getString(0)).toSet
    assert(carriers.subsetOf(Flights.Carriers.map(_._1).toSet))
    assert(carriers.size == Flights.Carriers.size)
    val origins = df.select("Origin").distinct().collect().map(_.getString(0)).toSet
    assert(origins.subsetOf(Flights.Airports.map(_._1).toSet))
  }

  test("origin/dest states match the airport table") {
    val stateOf = Flights.Airports.map(a => a._1 -> a._2).toMap
    df.select("Origin", "OriginState").distinct().collect().foreach { r =>
      assert(stateOf(r.getString(0)) == r.getString(1))
    }
  }

  test("airport popularity is skewed (big airports dominate)") {
    val counts = df.groupBy("Origin").count().collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(counts("ATL") > counts("KOA") * 3)
  }

  test("EV stops flying after day 1200 (Q19 ground truth)") {
    val evMax = df.filter(col("Carrier") === "EV").agg(max("FlightDate")).head().getDate(0)
    val limit = java.time.LocalDate.parse(Flights.StartDate).plusDays(Flights.EvLastDay + 1)
    assert(!evMax.toLocalDate.isAfter(limit))
    val othersMax = df.filter(col("Carrier") === "DL").agg(max("FlightDate")).head().getDate(0)
    assert(othersMax.toLocalDate.isAfter(limit))
  }

  test("cancelled flights have missing delays and air times") {
    val cancelled = df.filter(col("Cancelled") === 1)
    assert(cancelled.count() > 0)
    assert(cancelled.filter(col("DepDelay").isNotNull).count() == 0)
    assert(cancelled.filter(col("ArrDelay").isNotNull).count() == 0)
    assert(cancelled.filter(col("AirTime").isNotNull).count() == 0)
  }

  test("distance is a stable function of the route") {
    val perRoute = df.groupBy("Origin", "Dest").agg(countDistinct("Distance").as("d"))
    assert(perRoute.filter(col("d") > 1).count() == 0)
  }

  test("UA is tardier than AA; HA is the most punctual (Q1/Q2 ground truth)") {
    val means = df.filter(col("DepDelay").isNotNull)
      .groupBy("Carrier").agg(avg("DepDelay").as("m"))
      .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(means("UA") > means("AA"))
    assert(means.minBy(_._2)._1 == "HA")
  }

  test("EV has the highest cancellation rate (Q9 ground truth)") {
    val rates = df.groupBy("Carrier").agg(avg("Cancelled").as("r"))
      .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(rates.maxBy(_._2)._1 == "EV")
  }

  test("weather delays concentrate in northern states") {
    val wx = df.groupBy("OriginState").agg(avg("WeatherDelay").as("w"))
      .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(wx("IL") > wx("CA") * 2)
  }

  test("delays have a heavy right tail") {
    val d = df.filter(col("DepDelay").isNotNull)
    val p99 = d.stat.approxQuantile("DepDelay", Array(0.5, 0.99), 0.01)
    assert(p99(1) > p99(0) + 50, s"median=${p99(0)} p99=${p99(1)}")
  }

  test("UA taxi-in exceeds AA taxi-in at the same airport (Q12 ground truth)") {
    val taxi = df.filter(col("Origin") === "ORD" && col("TaxiIn").isNotNull)
      .groupBy("Carrier").agg(avg("TaxiIn").as("t"))
      .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(taxi("UA") > taxi("AA") + 0.5)
  }

  test("hour-of-day delay curve favors early morning (Q7 ground truth)") {
    val byHour = df.filter(col("DepDelay").isNotNull)
      .groupBy("DepHour").agg(avg("DepDelay").as("m"))
      .collect().map(r => r.getInt(0) -> r.getDouble(1)).toMap
    val best = byHour.minBy(_._2)._1
    assert(best <= 8, s"best hour was $best")
    assert(byHour(23) > byHour(6))
  }
}

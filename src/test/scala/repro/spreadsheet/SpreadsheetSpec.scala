package repro.spreadsheet

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core._
import repro.engine.ComputationCache
import repro.harness.Datasets
import repro.storage.{CachedTable, ColumnarBlock, RowPred}

class SpreadsheetSpec extends SparkSpec {

  private lazy val df    = Datasets.flightsDf(spark, 150000).cache()
  private lazy val table: CachedTable =
    repro.storage.ColumnStore.fromDataFrame("flights-spec", df, blockRows = 10000).warm()
  private def sheet = new Spreadsheet(new ComputationCache())

  test("range is cached: second call does not recompute") {
    val s = sheet
    val m1 = s.range(table, "DepDelay")
    val missesAfterFirst = s.cache.missCount
    val m2 = s.range(table, "DepDelay")
    assert(s.cache.missCount == missesAfterFirst)
    assert(s.cache.hitCount >= 1)
    assert(m1.count == m2.count)
  }

  test("histogram viz matches the exact DataFrame bucketing") {
    val s   = sheet
    val viz = s.histogram(table, "Distance", buckets = 20, sampled = false)
    val m   = s.range(table, "Distance")
    val width = (m.max - m.min) / 20
    val exact = df.filter(col("Distance").isNotNull)
      .groupBy(least(floor((col("Distance") - m.min) / width), lit(19)).cast("int").as("b"))
      .count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    (0 until 20).foreach(b => assert(viz.result.counts(b) == exact.getOrElse(b, 0L), s"bucket $b"))
  }

  test("sampled histogram renders within a pixel of the exact one") {
    val s     = sheet
    val exact = s.histogram(table, "DepDelay", sampled = false)
    val smp   = s.histogram(table, "DepDelay", sampled = true)
    val pe    = Render.histogramPixels(exact.result, 200)
    val ps    = Render.histogramPixels(smp.result, 200)
    val off   = pe.indices.count(i => math.abs(pe(i) - ps(i)) > 2)
    assert(off <= 2, s"$off bars off by more than two pixels")
  }

  test("histogramWithCdf zips both summaries in one tree") {
    val viz = sheet.histogramWithCdf(table, "DepDelay")
    val (hist, cdf) = viz.result
    assert(hist.counts.length == 100)
    assert(cdf.counts.length == 200)
    assert(viz.info.totalMs > 0 && viz.info.rootBytes > 0)
  }

  test("string histogram buckets every origin airport") {
    val viz = sheet.stringHistogram(table, "Origin")
    val (bk, hist) = viz.result
    assert(bk.count <= 50)
    assert(hist.counts.sum == table.numRows)
  }

  test("string histogram on a small domain gets one bucket per value") {
    val viz = sheet.stringHistogram(table, "Carrier")
    val (bk, hist) = viz.result
    assert(bk.isInstanceOf[ExactStringBuckets])
    assert(bk.count == df.select("Carrier").distinct().count())
    assert(hist.counts.forall(_ > 0))
  }

  test("heatmap counts match DataFrame 2-D bucketing totals") {
    val viz = sheet.heatmap(table, "DepDelay", "ArrDelay", bins = 20)
    val nonMissing = df.filter(col("DepDelay").isNotNull && col("ArrDelay").isNotNull).count()
    assert(viz.result.cells.sum == nonMissing)
  }

  test("stacked histogram with cdf runs and bars cover all carriers") {
    val viz = sheet.stackedHistogramWithCdf(table, "DepHour", "Carrier")
    val (st, cdf) = viz.result
    assert(st.by == df.select("Carrier").distinct().count())
    assert(cdf.counts.length == 200)
  }

  test("charts over a filter that keeps no rows are all zero") {
    val none = table.filter("none", new RowPred {
      def apply(b: ColumnarBlock, i: Int): Boolean = false
    })
    val s = sheet
    assert(s.range(none, "DepDelay").isEmpty)
    assert(s.histogram(none, "DepDelay").result.counts.forall(_ == 0))
    val (hist, cdf) = s.histogramWithCdf(none, "DepDelay").result
    assert(hist.counts.forall(_ == 0) && cdf.counts.forall(_ == 0))
    val (st, stCdf) = s.stackedHistogramWithCdf(none, "DepHour", "Carrier").result
    assert(st.barCounts.forall(_ == 0) && st.cellCounts.forall(_ == 0) && stCdf.counts.forall(_ == 0))
    assert(s.heatmap(none, "DepDelay", "ArrDelay").result.cells.forall(_ == 0))
    assert(s.trellisHeatmap(none, "Carrier", "DepDelay", "ArrDelay").result.plots
      .forall(_.cells.forall(_ == 0)))
    val (origins, strHist) = s.stringHistogram(none, "Origin").result
    assert(origins.count == 0 && strHist.counts.isEmpty)
    assert(Render.histogramPixels(strHist, s.defaultV).isEmpty)
    none.drop()
  }

  test("nextItems equals DataFrame orderBy/limit with duplicate aggregation") {
    val viz = sheet.nextItems(table, Seq(SortCol("Distance")), k = 10)
    val exact = df.groupBy("Distance").count().orderBy("Distance").limit(10)
      .collect().map(r => (r.getInt(0).toDouble, r.getLong(1)))
    val got = viz.result.rows.map { case (k, c) => (k.cells.head.asInstanceOf[NumCell].v, c) }
    assert(got == exact.toVector)
  }

  test("quantileThenNext lands near the requested quantile") {
    val viz = sheet.quantileThenNext(table, Seq(SortCol("DepDelay")), 0.5, k = 5)
    assert(viz.result.rows.nonEmpty)
    val top = viz.result.rows.head._1.cells.head.asInstanceOf[NumCell].v
    val exactMedian = df.stat.approxQuantile("DepDelay", Array(0.5), 0.001)(0)
    val m = sheet.range(table, "DepDelay")
    assert(math.abs(top - exactMedian) < (m.max - m.min) * 0.05,
      s"jumped to $top, exact median $exactMedian")
  }

  test("findText locates the first match in sort order") {
    val viz = sheet.findText(table, "Origin", "SFO", ExactMatch, caseSensitive = true,
      Seq(SortCol("Origin")))
    assert(viz.result.matches == df.filter(col("Origin") === "SFO").count())
    assert(viz.result.firstMatch.get.cells.head == StrCell("SFO"))
  }

  test("heavy hitters (sampling) honors the Theorem-4 contract") {
    // Every value with frequency ≥ 1/K must be found; none ≤ 1/4K.
    val k      = 30
    val viz    = sheet.heavyHittersSampling(table, "Origin", k)
    val total  = table.numRows.toDouble
    val shares = df.groupBy("Origin").count().collect()
      .map(r => r.getString(0) -> r.getLong(1) / total).toMap
    val got = viz.result.map(_._1).toSet
    val mustFind = shares.filter(_._2 >= 1.0 / k).keySet
    val mustSkip = shares.filter(_._2 <= 1.0 / (4 * k)).keySet
    assert(mustFind.subsetOf(got), s"missing: ${mustFind.diff(got)}")
    assert(got.intersect(mustSkip).isEmpty, s"false positives: ${got.intersect(mustSkip)}")
  }

  test("heavy hitters (streaming) counts exactly for small domains") {
    val viz   = sheet.heavyHittersStreaming(table, "Carrier", 12)
    val exact = df.groupBy("Carrier").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    viz.result.foreach { case (c, n) => assert(n.toLong == exact(c), s"carrier $c") }
  }

  test("distinct count is within HLL error of the exact count") {
    val viz   = sheet.distinctCount(table, "FlightNum")
    val exact = df.select("FlightNum").distinct().count()
    assert(math.abs(viz.result - exact) / exact < 0.05, s"got ${viz.result}, exact $exact")
  }

  test("pca on correlated delay columns finds the joint component") {
    val viz = sheet.pca(table, Seq("DepDelay", "ArrDelay", "Distance"), 1, sampled = false)
    val v   = viz.result.eigenvectors(0)
    // DepDelay and ArrDelay are strongly correlated; Distance independent.
    assert(math.abs(v(0)) > 0.5 && math.abs(v(1)) > 0.5 && math.abs(v(2)) < 0.3)
  }

  test("RunInfo reports progressive metadata") {
    val viz = sheet.histogramWithCdf(table, "ArrDelay")
    assert(viz.info.updates >= 1)
    assert(viz.info.firstPartialMs <= viz.info.totalMs)
    assert(viz.info.rootBytes > 0)
  }
}

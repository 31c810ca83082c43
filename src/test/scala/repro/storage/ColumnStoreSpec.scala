package repro.storage

import org.apache.spark.sql.functions._
import repro.{SparkSpec, SynthData}
import repro.core.{LeafCtx, MomentsSketch, StreamingHistogramSketch, NumericBuckets}
import repro.engine.ExecutionTree

class ColumnStoreSpec extends SparkSpec {

  private lazy val li = SynthData.lineitem(spark, sf = 0.002, seed = 1)

  test("fromDataFrame preserves row count") {
    val t = ColumnStore.fromDataFrame("li", li)
    assert(t.numRows == li.count())
    t.drop()
  }

  test("column kinds map from Catalyst types") {
    val t = ColumnStore.fromDataFrame("li2", li, cache = false)
    val b = t.blocks.first()
    assert(b.column("l_orderkey").isInstanceOf[LongColumn])
    assert(b.column("l_quantity").isInstanceOf[DoubleColumn])
    assert(b.column("l_returnflag").isInstanceOf[StringColumn])
    assert(b.column("l_shipdate").isInstanceOf[DateColumn])
  }

  test("micropartitioning bounds block sizes") {
    val t = ColumnStore.fromDataFrame("li3", li, blockRows = 1000, cache = false)
    val sizes = t.blocks.map(_.numRows).collect()
    assert(sizes.forall(_ <= 1000))
    assert(sizes.sum == li.count())
  }

  test("string dictionary encodes all values") {
    val t = ColumnStore.fromDataFrame("li4", li, cache = false)
    val dicts = t.blocks.map(_.column("l_returnflag").asInstanceOf[StringColumn].dict.toSet).collect()
    dicts.foreach(d => assert(d.subsetOf(Set("N", "R", "A"))))
  }

  test("null handling: nulls become missing values") {
    import spark.implicits._
    val df = Seq[(java.lang.Double, String)]((1.0, "a"), (null, null), (3.0, "c"))
      .toDF("x", "s")
    val t = ColumnStore.fromDataFrame("nulls", df, cache = false)
    val m = ExecutionTree.run(t, MomentsSketch("x"))
    assert(m.count == 3 && m.missing == 1)
  }

  test("sketch over the cached table equals DataFrame aggregation") {
    val t = ColumnStore.fromDataFrame("li5", li)
    val m = ExecutionTree.run(t, MomentsSketch("l_quantity"))
    val row = li.agg(count(lit(1)), min("l_quantity"), max("l_quantity"), sum("l_quantity")).head()
    assert(m.count == row.getLong(0))
    assert(m.min == row.getDouble(1))
    assert(m.max == row.getDouble(2))
    assert(math.abs(m.sum - row.getDouble(3)) < 1e-6 * math.abs(row.getDouble(3)))
    t.drop()
  }

  test("filter produces a membership-set view with the right rows") {
    val t = ColumnStore.fromDataFrame("li6", li)
    val f = t.filter("q>25", new RowPred {
      def apply(b: ColumnarBlock, i: Int): Boolean = b.column("l_quantity").asDouble(i) > 25.0
    })
    assert(f.numRows == li.filter(col("l_quantity") > 25.0).count())
    assert(f.id.contains("filter:q>25"))
    f.drop(); t.drop()
  }

  test("derive adds a computed column usable by sketches") {
    val t = ColumnStore.fromDataFrame("li7", li)
    val d = t.derive("revenue", new RowFn {
      def apply(b: ColumnarBlock, i: Int): Double =
        b.column("l_extendedprice").asDouble(i) * (1.0 - b.column("l_discount").asDouble(i))
    })
    val m = ExecutionTree.run(d, MomentsSketch("revenue"))
    val exact = li.agg(sum(col("l_extendedprice") * (lit(1.0) - col("l_discount")))).head().getDouble(0)
    assert(math.abs(m.sum - exact) < 1e-6 * math.abs(exact))
    d.drop(); t.drop()
  }

  test("fromParquet reads cold data without caching") {
    val dir = java.nio.file.Files.createTempDirectory("repro-pq").toString
    val path = s"$dir/li.parquet"
    li.write.mode("overwrite").parquet(path)
    val t = ColumnStore.fromParquet("cold", spark, path, Seq("l_quantity", "l_returnflag"))
    assert(t.numRows == li.count())
    val hist = ExecutionTree.run(t, StreamingHistogramSketch("l_quantity", NumericBuckets(0, 60, 10)))
    assert(hist.counts.sum > 0)
  }

  test("buildBlock rejects unsupported types") {
    import spark.implicits._
    val df = Seq((1, Array(1, 2))).toDF("a", "arr")
    intercept[Exception] {
      ColumnStore.fromDataFrame("bad", df, cache = false).numRows
    }
  }
}

package repro.engine

import repro.{SparkSpec, SynthData}
import repro.core.{MomentsSketch, NumericBuckets, SampledHistogramSketch}
import repro.storage.{ColumnStore, ColumnarBlock, RowFn, RowPred}

class EngineSpec extends SparkSpec {

  /** Fresh engine with the builders/predicates the tests replay. */
  private def newEngine(): Engine = {
    val e = new Engine(spark)
    e.registerBuilder("lineitem") { params =>
      val sf = params.getOrElse("sf", "0.002").toDouble
      ColumnStore.fromDataFrame("src", SynthData.lineitem(spark, sf, seed = 1), blockRows = 5000)
    }
    e.registerPredicate("qtyAbove") { params =>
      val threshold = params("t").toDouble
      new RowPred {
        def apply(b: ColumnarBlock, i: Int): Boolean =
          b.column("l_quantity").asDouble(i) > threshold
      }
    }
    e.registerMapFn("revenue") { _ =>
      new RowFn {
        def apply(b: ColumnarBlock, i: Int): Double =
          b.column("l_extendedprice").asDouble(i) * (1.0 - b.column("l_discount").asDouble(i))
      }
    }
    e
  }

  test("load registers the table and logs the operation") {
    val e = newEngine()
    val t = e.load("li", "lineitem", Map("sf" -> "0.002"))
    assert(t.numRows > 0)
    assert(e.log.entries.exists { case LoadOp("li", "lineitem", _) => true; case _ => false })
    assert(e.registeredTables.contains("li"))
  }

  test("filter and derive build derived tables with logged lineage") {
    val e  = newEngine()
    val t  = e.load("li", "lineitem", Map("sf" -> "0.002"))
    val f  = e.filter(t, "big", "qtyAbove", Map("t" -> "40"))
    val d  = e.derive(f, "revenue", "revenue")
    assert(f.numRows < t.numRows && f.numRows > 0)
    assert(d.columnNames.contains("revenue"))
    assert(e.log.entries.size == 3)
  }

  test("soft state recovery: dropping everything and re-reading replays the log") {
    val e  = newEngine()
    val t  = e.load("li", "lineitem", Map("sf" -> "0.002"))
    val f  = e.filter(t, "big", "qtyAbove", Map("t" -> "40"))
    val before = ExecutionTree.run(f, MomentsSketch("l_quantity"))

    e.dropAllSoftState()
    assert(e.registeredTables.isEmpty)

    val recovered = e.table(f.id) // triggers recursive replay: filter needs load
    val after     = ExecutionTree.run(recovered, MomentsSketch("l_quantity"))
    assert(after.count == before.count)
    assert(after.min == before.min && after.max == before.max)
    assert(math.abs(after.sum - before.sum) < 1e-6)
  }

  test("randomized sketches reproduce exactly after recovery (seeded determinism, §5.8)") {
    val e  = newEngine()
    val t  = e.load("li", "lineitem", Map("sf" -> "0.002"))
    val sk = SampledHistogramSketch("l_quantity", NumericBuckets(0, 60, 20), 0.1)
    val before = ExecutionTree.run(t, sk, seed = 77)
    e.dropAllSoftState()
    val after = ExecutionTree.run(e.table("li"), sk, seed = 77)
    assert(before.counts.toSeq == after.counts.toSeq)
  }

  test("re-issuing an identical filter or derive returns the table it defines") {
    val e = newEngine()
    val t = e.load("li", "lineitem", Map("sf" -> "0.002"))
    val f = e.filter(t, "big", "qtyAbove", Map("t" -> "40"))
    val d = e.derive(t, "revenue", "revenue")
    assert(e.filter(t, "big", "qtyAbove", Map("t" -> "40")) eq f)
    assert(e.derive(t, "revenue", "revenue") eq d)
    assert(e.log.entries.size == 3)
  }

  test("reusing a label for a different load, filter or derive is refused") {
    val e = newEngine()
    val t = e.load("li", "lineitem", Map("sf" -> "0.002"))
    val f = e.filter(t, "big", "qtyAbove", Map("t" -> "40"))
    e.derive(t, "revenue", "revenue")
    val ex1 = intercept[IllegalArgumentException](e.filter(t, "big", "qtyAbove", Map("t" -> "10")))
    assert(ex1.getMessage.contains("big"))
    val ex2 = intercept[IllegalArgumentException](e.derive(t, "revenue", "revenue", Map("k" -> "2")))
    assert(ex2.getMessage.contains("revenue"))
    val ex3 = intercept[IllegalArgumentException](e.load("li", "lineitem", Map("sf" -> "0.004")))
    assert(ex3.getMessage.contains("li"))
    assert(e.log.entries.size == 3)
    assert(e.table(f.id) eq f)
  }

  test("accessing an unknown table fails with a recovery error") {
    val e = newEngine()
    val ex = intercept[IllegalStateException](e.table("nope"))
    assert(ex.getMessage.contains("redo log"))
  }

  test("redo log survives a save/load round trip (root restart, §5.8)") {
    val e = newEngine()
    val t = e.load("li", "lineitem", Map("sf" -> "0.002"))
    e.filter(t, "big", "qtyAbove", Map("t" -> "30"))
    val path = java.nio.file.Files.createTempFile("redo", ".log").toString
    e.log.save(path)

    val e2 = newEngine() // a restarted root: empty registry, fresh builders
    e2.log.load(path)
    assert(e2.log.entries == e.log.entries)
    val recovered = e2.table(s"${t.id}|filter:big")
    assert(recovered.numRows > 0)
  }

  test("unregistered builder fails replay loudly") {
    val e = new Engine(spark)
    e.log.append(LoadOp("x", "missing-builder", Map.empty))
    val ex = intercept[IllegalStateException](e.table("x"))
    assert(ex.getMessage.contains("missing-builder"))
  }
}

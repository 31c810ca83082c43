package repro.perfbench

import java.io.File
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.engine.{Engine, ExecutionTree, LocalWorker}
import repro.harness.Datasets
import repro.spreadsheet.Ops
import repro.storage._

/** The sketch of the no-op tree: it only counts member rows, so a tree
  * running it costs what the engine costs.
  */
object RowCountSketch extends Sketch[Long] {
  def name                                        = "bench.rowcount"
  def zero                                        = 0L
  def summarize(block: ColumnarBlock, ctx: LeafCtx): Long = block.rowCount.toLong
  def merge(a: Long, b: Long): Long               = a + b
}

/** Per-layer measurements, each timed around public calls of one module
  * over a fixed slice of the workload's data: `storage` (ingest, cold
  * read, filter, sampling), `core` (one leaf's kernel per sketch at one
  * thread, merge, summary size) and `engine` (the tree floor, tree vs.
  * local pool, redo-log replay).
  */
object Layers {

  /** Rows of the layer slice: one block per core on four cores. */
  val Rows = 1 << 19

  private object Gain extends RowFn {
    def apply(b: ColumnarBlock, i: Int): Double = b.column("DepDelay").asDouble(i) - b.column("ArrDelay").asDouble(i)
  }

  /** Written with every result a timed loop computes, so the JIT cannot
    * drop the loop as dead code.
    */
  @volatile private var blackhole = 0L

  /** Median wall milliseconds of `reps` runs after `warmups` unmeasured ones. */
  def medianMs(reps: Int, warmups: Int = 1)(f: => Any): Double = {
    (0 until warmups).foreach(_ => f)
    Stats.median((0 until reps).map { _ =>
      val t0 = System.nanoTime()
      f
      (System.nanoTime() - t0) / 1e6
    })
  }

  /** Median microseconds of one `merge`, over batches of at least 5 ms. */
  private def mergeUs[S](sk: Sketch[S], a: S, b: S): Double = {
    val us = (0 until 8).map { _ =>
      val t0 = System.nanoTime()
      var n  = 0
      while (System.nanoTime() - t0 < 5_000_000L) { blackhole += sk.merge(a, b).hashCode; n += 1 }
      (System.nanoTime() - t0) / 1e3 / n
    }
    Stats.median(us.drop(1)) // the first batch warms the JIT
  }

  def run(spark: SparkSession, seed: Long, work: File, threads: Int): Seq[Metric] = {
    val out = Seq.newBuilder[Metric]
    def perRow(name: String, ms: Double, rows: Long): Unit = out += Metric(name, ms * 1e6 / rows, "ns/row")

    // ---------- storage ----------
    val df = Datasets.flightsDf(spark, Rows, seed).persist(StorageLevel.MEMORY_ONLY)
    df.count()
    var table: CachedTable = null
    perRow("storage.ingest_ns_per_row", medianMs(3, 0) {
      if (table != null) table.drop()
      table = ColumnStore.fromDataFrame("layer", df).warm()
    }, Rows)
    val memSize = spark.sparkContext.getRDDStorageInfo.find(_.id == table.blocks.id).map(_.memSize).getOrElse(0L)
    out += Metric("storage.cache_bytes_per_row", memSize.toDouble / Rows, "B/row")

    val parquet = new File(work, "layer.parquet").getPath
    df.write.mode("overwrite").parquet(parquet)
    perRow("storage.parquet_read_ns_per_row",
      medianMs(3)(ColumnStore.fromParquet("layer-cold", spark, parquet, Datasets.WorkloadCols).warm()), Rows)
    perRow("storage.filter_ns_per_row", medianMs(3)(table.filter("delayed", Fig4.Delayed).warm().drop()), Rows)

    val blocks = table.blocks.collect().toIndexedSeq
    val rate   = SampleSize.rate(SampleSize.histogram(200), Rows)
    val dense  = blocks.map(b => b.filtered(i => Fig4.Delayed(b, i)))
    val sparse = blocks.map(b => b.filtered(i => b.column("Carrier").asString(i) == "UA"))
    require(dense.forall(_.membership.isInstanceOf[DenseMembership]) &&
      sparse.forall(_.membership.isInstanceOf[SparseMembership]), "layer slice lost its dense/sparse filters")
    for ((kind, bs) <- Seq("full" -> blocks, "dense" -> dense, "sparse" -> sparse)) {
      val ms = medianMs(5) {
        var sum = 0L
        bs.zipWithIndex.foreach { case (b, i) => b.foreachSampledRow(rate, new SplitMix(i.toLong))(r => sum += r) }
        blackhole += sum
      }
      perRow(s"storage.sample_ns_per_row.$kind", ms, bs.map(_.rowCount.toLong).sum)
    }

    // ---------- core ----------
    def moments(c: String) = LocalWorker.run(blocks, MomentsSketch(c), 1)
    val dep      = moments("DepDelay")
    val arr      = moments("ArrDelay")
    val hour     = moments("DepHour")
    val depBk    = NumericBuckets(dep.min, dep.max, 100)
    val carriers = StringBucketsSketch.toBuckets(LocalWorker.run(blocks, StringBucketsSketch("Carrier"), 1), 20)
    val sketches: Seq[(String, Sketch[_])] = Seq(
      "histogram.streaming"   -> StreamingHistogramSketch("DepDelay", depBk),
      "histogram.sampled"     -> SampledHistogramSketch("DepDelay", depBk, rate),
      "cdf.sampled"           -> CdfSketch("DepDelay", dep.min, dep.max, 200, rate),
      "stacked.sampled"       -> StackedHistogramSketch("DepHour", NumericBuckets(hour.min, hour.max, 50),
                                   "Carrier", carriers, rate),
      "heatmap"               -> HeatmapSketch("DepDelay", NumericBuckets(dep.min, dep.max, 66),
                                   "ArrDelay", NumericBuckets(arr.min, arr.max, 66)),
      "next_items.numeric"    -> NextItemsSketch(Seq(SortCol("DepDelay")), 20),
      "next_items.string"     -> NextItemsSketch(Seq(SortCol("Carrier")), 20),
      "quantile"              -> QuantileSketch(Ops.SortCols5, 10000),
      "hll"                   -> HllSketch("FlightNum"),
      "misra_gries"           -> MisraGriesSketch("Origin", 100),
      "heavy_hitters.sampled" -> SamplingHeavyHittersSketch("Origin",
                                   SampleSize.rate(SampleSize.heavyHitters(20), Rows)),
      "string_buckets"        -> StringBucketsSketch("Origin"),
      "moments"               -> MomentsSketch("DepDelay"),
    )
    for ((name, sk) <- sketches)
      perRow(s"core.summarize_ns_per_row.$name", medianMs(3)(LocalWorker.run(blocks, sk, 1, seed)), Rows)

    def mergeAndSize[S](name: String, sk: Sketch[S]): Unit = {
      val a = sk.summarize(blocks(0), LeafCtx(0, seed))
      val b = sk.summarize(blocks(1), LeafCtx(1, seed))
      out += Metric(s"core.merge_us.$name", mergeUs(sk, a, b), "us")
      out += Metric(s"core.summary_bytes.$name", Serde.sizeOf(a).toDouble, "B")
    }
    val byName = sketches.toMap
    for (name <- Seq("next_items", "quantile", "heatmap", "hll", "string_buckets"))
      mergeAndSize(name, byName.getOrElse(name, byName(s"$name.numeric")))

    // ---------- engine ----------
    out += Metric("engine.noop_tree_ms.progressive", medianMs(15, 3)(ExecutionTree.runProgressive(table, RowCountSketch)), "ms")
    out += Metric("engine.noop_tree_ms.blocking", medianMs(15, 3)(ExecutionTree.run(table, RowCountSketch)), "ms")
    val hist = StreamingHistogramSketch("DepDelay", depBk)
    out += Metric("engine.tree_ms.histogram", medianMs(9, 2)(ExecutionTree.run(table, hist)), "ms")
    out += Metric("engine.local_pool_ms.histogram", medianMs(9, 2)(LocalWorker.run(blocks, hist, threads)), "ms")

    val engine = new Engine(spark)
    engine.registerBuilder("layer")(_ => ColumnStore.fromDataFrame("layer", df))
    engine.registerPredicate("delayed")(_ => Fig4.Delayed)
    engine.registerMapFn("gain")(_ => Gain)
    val derived = engine.derive(engine.filter(engine.load("layer", "layer"), "delayed", "delayed"), "Gain", "gain")
    out += Metric("engine.replay_ms", medianMs(3, 0) {
      engine.dropAllSoftState()
      engine.table(derived.id).warm()
    }, "ms")
    engine.dropAllSoftState()

    table.drop()
    df.unpersist(blocking = true)
    out.result()
  }
}

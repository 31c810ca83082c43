package repro.harness

import repro.baseline.DuckDbBaseline
import repro.core._
import repro.engine.{ClusterSim, LocalWorker}
import repro.storage.ColumnarBlock

/** T1 — §7.2.1 inline table: single-thread histogram computation,
  * streaming vizketch vs sampling vizketch vs an in-memory database
  * (DuckDB stands in for the paper's unnamed commercial system).
  */
object T1SingleThread {

  final case class Row(method: String, timeMs: Double)

  def run(rows: Int = 10_000_000, buckets: Int = 100, v: Int = 200,
          reps: Int = 5): Seq[Row] = {
    val blocks = Datasets.numericShards(1, rows)
    val m      = LocalWorker.run(blocks, MomentsSketch("x"), 1)
    val bk     = NumericBuckets(m.min, m.max, buckets)

    val streamingMs = LocalWorker.timeMs(blocks, HistogramSketch("x", bk), 1, reps = reps)

    val rate      = SampleSize.rate(SampleSize.histogram(v), rows.toLong)
    val samplingMs = LocalWorker.timeMs(blocks, HistogramSketch("x", bk, rate), 1, reps = reps)

    val conn = DuckDbBaseline.connectionWithData(
      blocks.head.column("x").asInstanceOf[repro.storage.DoubleColumn].values)
    val dbMs =
      try { DuckDbBaseline.setThreads(conn, 1); DuckDbBaseline.histogramMs(conn, m.min, m.max, buckets, reps = reps) }
      finally conn.close()

    Seq(Row("streaming", streamingMs), Row("sampling", samplingMs), Row("database system", dbMs))
  }

  def render(rows: Seq[Row]): String =
    TableText.render("T1 (§7.2.1): single-thread histogram, time (ms)",
      Seq("Method", "Time (ms)"), rows.map(r => Seq(r.method, TableText.fmtMs(r.timeMs))))
}

/** T4 — Fig. 7: scalability as leafs (threads) and shards grow together.
  * Ideal scaling is constant latency for the streaming sketch; the
  * sampled sketch gets *faster* (super-linear) because the total sample
  * size is fixed by the screen, so per-leaf work shrinks.
  */
object T4ThreadScalability {

  final case class Row(shards: Int, streamingMs: Double, samplingMs: Double)

  def run(shardCounts: Seq[Int] = Seq(1, 2, 4, 8, 16, 32),
          rowsPerShard: Int = 1_000_000, buckets: Int = 100, v: Int = 200,
          reps: Int = 5): Seq[Row] = {
    val maxShards = shardCounts.max
    val allBlocks = Datasets.numericShards(maxShards, rowsPerShard)
    val m         = LocalWorker.run(allBlocks, MomentsSketch("x"), 4)
    val bk        = NumericBuckets(m.min, m.max, buckets)

    shardCounts.map { n =>
      val blocks = allBlocks.take(n)
      val streamingMs = LocalWorker.timeMs(blocks, HistogramSketch("x", bk), n, reps = reps)
      // Fixed total sample target; the rate falls as data grows with n.
      val rate       = SampleSize.rate(SampleSize.histogram(v), n.toLong * rowsPerShard)
      val samplingMs = LocalWorker.timeMs(blocks, HistogramSketch("x", bk, rate), n, reps = reps)
      Row(n, streamingMs, samplingMs)
    }
  }

  def render(rows: Seq[Row]): String =
    TableText.render("T4 (Fig. 7): thread scalability (constant = ideal)",
      Seq("Shards/threads", "Streaming (ms)", "Sampling (ms)"),
      rows.map(r => Seq(r.shards.toString, TableText.fmtMs(r.streamingMs), TableText.fmtMs(r.samplingMs))))
}

/** T5 — Fig. 8: scalability as simulated servers and data grow together.
  * Each "server" runs its shard set with a fixed thread budget; the
  * simulated cluster latency is the max per-server time (see DESIGN.md on
  * this substitution).
  */
object T5ServerScalability {

  final case class Row(servers: Int, streamingMs: Double, samplingMs: Double)

  def run(serverCounts: Seq[Int] = Seq(1, 2, 4, 8),
          shardsPerServer: Int = 4, rowsPerShard: Int = 1_000_000,
          threadsPerServer: Int = 2, buckets: Int = 100, v: Int = 200): Seq[Row] = {
    val maxServers = serverCounts.max
    val allBlocks  = Datasets.numericShards(maxServers * shardsPerServer, rowsPerShard)
    val m          = LocalWorker.run(allBlocks, MomentsSketch("x"), 4)
    val bk         = NumericBuckets(m.min, m.max, buckets)

    serverCounts.map { n =>
      val perServer: IndexedSeq[IndexedSeq[ColumnarBlock]] =
        (0 until n).map(s => allBlocks.slice(s * shardsPerServer, (s + 1) * shardsPerServer))
      val streaming = ClusterSim.run(perServer, HistogramSketch("x", bk), threadsPerServer)
      val rate      = SampleSize.rate(SampleSize.histogram(v), n.toLong * shardsPerServer * rowsPerShard)
      val sampling  = ClusterSim.run(perServer, HistogramSketch("x", bk, rate), threadsPerServer)
      Row(n, streaming.simulatedLatencyMs, sampling.simulatedLatencyMs)
    }
  }

  def render(rows: Seq[Row]): String =
    TableText.render("T5 (Fig. 8): server scalability, simulated (constant = ideal)",
      Seq("Servers", "Streaming (ms)", "Sampling (ms)"),
      rows.map(r => Seq(r.servers.toString, TableText.fmtMs(r.streamingMs), TableText.fmtMs(r.samplingMs))))
}

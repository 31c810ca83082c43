package repro.perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import java.time.Instant
import org.apache.spark.SparkContext
import org.apache.spark.sql.SparkSession
import scala.util.control.NonFatal

/** One action as the loop measured it. NaN where the action reports no
  * preparation time or first partial.
  */
final case class Sample(span: ActionSpan, wallMs: Double, prepMs: Double, firstPartialMs: Double,
                        failure: Option[String])

/** The benchmark process: one workload, one seed, one run.
  *
  * `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
  * per-layer metrics, writes the spans of the loop's actions, and runs
  * the per-layer suite after the loop. The last line of standard output
  * is the result object.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, work: File, results: File)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      new File(need("work")), new File(need("results")))
  }

  private def nowUs(): Long = {
    val i = Instant.now()
    i.getEpochSecond * 1_000_000L + i.getNano / 1000
  }

  def perform(sc: SparkContext, a: Action, group: String, pass: Int): Sample = {
    sc.setJobGroup(group, a.name)
    val startUs = nowUs()
    val t0      = System.nanoTime()
    val result  = try Right(a.run()) catch { case NonFatal(e) => Left(e) }
    val wallMs  = (System.nanoTime() - t0) / 1e6
    val endUs   = nowUs()
    sc.clearJobGroup()
    val span = ActionSpan(group, a.name, pass, startUs, endUs)
    result match {
      case Left(e)  => Sample(span, wallMs, Double.NaN, Double.NaN, Some(s"${a.name} threw $e"))
      case Right(o) =>
        val failure = try o.check() catch { case NonFatal(e) => Some(s"${a.name} check threw $e") }
        Sample(span, wallMs, o.prepMs, o.firstPartialMs, failure)
    }
  }

  /** Closed loop, one client: `passes` whole passes over the workload's
    * actions, so every action is measured equally often.
    */
  def loop(sc: SparkContext, w: Workload, passes: Int, tag: String): (Vector[Sample], Double) = {
    val t0  = System.nanoTime()
    val out = (0 until passes).flatMap { pass =>
      w.pass().zipWithIndex.map { case (a, i) => perform(sc, a, s"$tag/$pass/$i/${a.name}", pass) }
    }
    (out.toVector, (System.nanoTime() - t0) / 1e9)
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val code = try run(args) catch {
      case NonFatal(e) =>
        System.err.println(s"perfbench: ${args.workload} failed: $e")
        e.printStackTrace()
        1
    }
    System.exit(code)
  }

  def run(args: Args): Int = {
    val processStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val threads        = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.sql.shuffle.partitions", threads.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.local.dir", new File(args.work, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(args.work, "warehouse").getPath)
      .getOrCreate()
    val sc = spark.sparkContext
    sc.setLogLevel("WARN")
    val listener = new LeafListener
    sc.addSparkListener(listener)
    val sessionSec = (System.currentTimeMillis() - processStartMs) / 1000.0
    def phase(p: String): Unit =
      System.err.println(f"perfbench: ${(System.currentTimeMillis() - processStartMs) / 1000.0}%.1f s $p")

    try {
      val w         = Workloads(args.workload, spark, args.seed, args.work, args.trace)
      phase("session ready")
      val setupSecs = w.setup()
      phase("table ready")
      val record    = w.record
      val warmup    = loop(sc, w, math.max(2, w.passes(Workloads.WarmupSeconds)), "warmup")._1
      phase("warm-up done")
      val (hits0, misses0) = w.cacheCounts
      listener.drain(sc)
      val (samples, loopSec) = loop(sc, w, w.passes(args.seconds), "loop")
      val (hits1, misses1) = w.cacheCounts
      listener.drain(sc)
      phase("loop done")

      val counts  = Trace.perAction(listener.trees, listener.leaves)
      val wall    = samples.map(_.wallMs)
      val tail    = Stats.tail(wall).getOrElse(throw new IllegalStateException(
        s"only ${wall.size} actions in ${args.seconds} s; the tail needs more than 10"))
      // Actions that report no partials (the questions) count the first
      // leaf result that reached the root.
      val firstPartial = samples.map { s =>
        if (!s.firstPartialMs.isNaN) s.firstPartialMs
        else counts.get(s.span.group).flatMap(_.firstResultMs).map(ms => ms - s.span.startUs / 1000.0)
          .getOrElse(Double.NaN)
      }
      val rootBytes = samples.map(s => counts.get(s.span.group).map(_.resultBytes).getOrElse(0L)).sum
      val endToEnd = Seq(
        Metric("setup_s", sessionSec + Stats.median(setupSecs), "s"),
        Metric("action_p50_ms", medianOfActions(samples, wall), "ms"),
        Metric("action_tail_ms", tail.value, "ms"),
        Metric("first_partial_p50_ms", medianOfActions(samples, firstPartial), "ms"),
        Metric("actions_per_s", samples.size / loopSec, "1/s"),
        Metric("root_kb_per_action", rootBytes / 1024.0 / samples.size, "KB"),
      )

      val others =
        if (!args.trace) Vector.empty
        else {
          val o = w.otherActions().zipWithIndex.map { case (a, i) => perform(sc, a, s"other/0/$i/${a.name}", 0) }
          phase("other actions done")
          o
        }
      val checked  = warmup ++ samples ++ others
      val failures = checked.flatMap(_.failure)
      failures.distinct.take(20).foreach(f => System.err.println(s"perfbench: FAILED $f"))

      val layerMetrics =
        if (!args.trace) Nil
        else {
          listener.drain(sc)
          val spans = samples.map(_.span)
          writeLines(new File(args.results, s"spans-${w.name}-seed${args.seed}.jsonl"),
            Trace.spanLines(spans, listener.trees, listener.leaves))
          val hits   = hits1 - hits0
          val misses = misses1 - misses0
          val loopNames = samples.map(_.span.name).toSet
          Trace.derived(spans, listener.trees, listener.leaves) ++ Seq(
            Metric("engine.cache_hits", hits.toDouble, "count"),
            Metric("engine.cache_misses", misses.toDouble, "count"),
            Metric("engine.cache_hit_ratio", if (hits + misses == 0) 0.0 else hits.toDouble / (hits + misses), "ratio"),
          ) ++ spreadsheetMetrics(samples ++ others.filterNot(o => loopNames(o.span.name))) ++
            Layers.run(spark, args.seed, args.work, threads)
        }

      val recordJson = Json.obj(
        "workload" -> Json.Str(w.name), "seed" -> Json.Num(args.seed.toDouble), "trace" -> Json.Bool(args.trace),
        "machine" -> Json.obj(
          "nproc" -> Json.Num(threads), "heap_max_bytes" -> Json.Num(Runtime.getRuntime.maxMemory.toDouble),
          "java" -> Json.Str(System.getProperty("java.version")), "spark" -> Json.Str(spark.version),
          "scala" -> Json.Str(scala.util.Properties.versionNumberString),
          "os" -> Json.Str(s"${System.getProperty("os.name")} ${System.getProperty("os.arch")}"),
          "master" -> Json.Str(sc.master)),
        "input" -> Json.Obj(record),
        "setup" -> Json.obj("session_s" -> Json.Num(sessionSec), "table_s" -> Json.Arr(setupSecs.map(Json.Num))),
        "loop" -> Json.obj("seconds" -> Json.Num(loopSec), "actions" -> Json.Num(samples.size.toDouble),
          "pass_s" -> Json.Arr(samples.groupBy(_.span.pass).toSeq.sortBy(_._1)
            .map { case (_, ss) => Json.Num(ss.map(_.wallMs).sum / 1000) }),
          "tail_percentile" -> Json.Num(tail.percentile), "tail_n" -> Json.Num(tail.n.toDouble),
          "per_action_p50_ms" -> Json.Obj(samples.groupBy(_.span.name).toSeq.sortBy(_._2.head.span.startUs)
            .map { case (n, ss) => n -> Json.Num(Stats.median(ss.map(_.wallMs))) })),
        "end_to_end" -> Json.metrics(endToEnd),
        "failures" -> Json.Arr(failures.map(Json.Str)),
      )
      println("record: " + recordJson.render)

      val result = Json.obj(
        "correct" -> Json.Bool(failures.isEmpty),
        "attempted" -> Json.Num(checked.size.toDouble),
        "failed" -> Json.Num(checked.count(_.failure.nonEmpty).toDouble),
        "metrics" -> Json.metrics(if (args.trace) layerMetrics else endToEnd))
      println(result.render)
      0
    } finally spark.stop()
  }

  /** The median over the workload's actions of each action's median
    * (`values` is parallel to `samples`; NaN values are skipped). Every
    * action weighs the same, as in the plain median of whole passes, but
    * the result stays inside one action's distribution. The plain median
    * of a mix of fast and slow actions falls near the gap between the two
    * groups and jumps between them from run to run.
    */
  def medianOfActions(samples: Seq[Sample], values: Seq[Double]): Double =
    Stats.median(samples.zip(values).filterNot(_._2.isNaN).groupBy(_._1.span.name).values
      .map(g => Stats.median(g.map(_._2))).toSeq)

  /** `spreadsheet.<action>.*`: median wall time of each action, and for
    * actions that report them, median preparation time and first partial.
    */
  def spreadsheetMetrics(samples: Seq[Sample]): Seq[Metric] =
    samples.groupBy(_.span.name).toSeq.sortBy(_._1).flatMap { case (n, ss) =>
      def med(f: Sample => Double): Option[Double] = {
        val xs = ss.map(f).filterNot(_.isNaN)
        if (xs.isEmpty) None else Some(Stats.median(xs))
      }
      Metric(s"spreadsheet.$n.p50_ms", med(_.wallMs).get, "ms") +:
        (med(_.prepMs).map(Metric(s"spreadsheet.$n.prep_ms", _, "ms")) ++
          med(_.firstPartialMs).map(Metric(s"spreadsheet.$n.first_partial_ms", _, "ms"))).toSeq
    }

  private def writeLines(f: File, lines: Iterator[String]): Unit = {
    val pw = new PrintWriter(f, "UTF-8")
    try lines.foreach(pw.println) finally pw.close()
  }
}

package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.harness._

/** Shared SparkSession for spark-submit entrypoints (mirrors the test
  * configuration: local mode, broadcast joins off, quiet UI).
  */
object JobSession {
  def get(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
}

/** T1 (§7.2.1): single-thread histogram — streaming vs sampling vs DB. */
object T1SingleThreadJob {
  def main(args: Array[String]): Unit = {
    val rows = args.headOption.map(_.toInt).getOrElse(10_000_000)
    println(T1SingleThread.render(T1SingleThread.run(rows)))
  }
}

/** T2 (Fig. 5): end-to-end warm, Hillview vs Spark baseline.
  * Optional args: `label:rows` size specs and `reps=N`, e.g.
  * `1x:2000000 5x:10000000 reps=3`.
  */
object T2EndToEndWarmJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("t2-endtoend-warm")
    val reps  = args.collectFirst { case s if s.startsWith("reps=") => s.drop(5).toInt }.getOrElse(3)
    val sizes = args.filter(_.contains(":")).map { s =>
      val Array(l, n) = s.split(":"); (l, n.toLong)
    }.toSeq
    val use = if (sizes.nonEmpty) sizes else T2EndToEndWarm.defaultSizes
    try println(T2EndToEndWarm.render(T2EndToEndWarm.run(spark, use, reps)))
    finally spark.stop()
  }
}

/** T3 (Fig. 6): end-to-end cold (parquet on disk). */
object T3EndToEndColdJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("t3-endtoend-cold")
    val dir   = args.headOption.getOrElse(sys.props("java.io.tmpdir") + "/repro-cold")
    try println(T3EndToEndCold.render(T3EndToEndCold.run(spark, dir)))
    finally spark.stop()
  }
}

/** T4 (Fig. 7): thread scalability of vizketches. */
object T4ThreadScalabilityJob {
  def main(args: Array[String]): Unit =
    println(T4ThreadScalability.render(T4ThreadScalability.run()))
}

/** T5 (Fig. 8): simulated multi-server scalability. */
object T5ServerScalabilityJob {
  def main(args: Array[String]): Unit =
    println(T5ServerScalability.render(T5ServerScalability.run()))
}

/** T6 (Fig. 9): vizketch coding effort. */
object T6VizketchLocJob {
  def main(args: Array[String]): Unit =
    println(T6VizketchLoc.render(T6VizketchLoc.run()))
}

/** T7 (Fig. 11): the Q1–Q20 case study. */
object T7CaseStudyJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("t7-casestudy")
    try println(T7CaseStudy.render(T7CaseStudy.run(spark)))
    finally spark.stop()
  }
}

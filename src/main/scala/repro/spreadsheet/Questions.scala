package repro.spreadsheet

import repro.core._
import repro.storage.{CachedTable, ColumnarBlock, RowPred}

/** The Fig. 10 case study: twenty questions about the flights data, each
  * answered by a scripted sequence of spreadsheet actions (filter, chart,
  * hover). `actions` counts UI-level actions the way Fig. 11 does (menu
  * choice, click, drag); the answer text is what the operator would read
  * off the screen. Every data access goes through vizketches — Hillview
  * "has no other way to visualize data" (§7.3).
  */
object Questions {

  final case class Answer(q: String, question: String, text: String, actions: Int, ms: Double)

  // ---------- predicate helpers (membership-set filters, §5.6) ----------

  private def eqStr(col: String, v: String): RowPred = new RowPred {
    def apply(b: ColumnarBlock, i: Int): Boolean = b.column(col).asString(i) == v
  }
  private def eqStr2(c1: String, v1: String, c2: String, v2: String): RowPred = new RowPred {
    def apply(b: ColumnarBlock, i: Int): Boolean =
      b.column(c1).asString(i) == v1 && b.column(c2).asString(i) == v2
  }
  private def eqNum(col: String, v: Double): RowPred = new RowPred {
    def apply(b: ColumnarBlock, i: Int): Boolean = b.column(col).asDouble(i) == v
  }

  private def withFiltered[R](t: CachedTable, label: String, p: RowPred)(f: CachedTable => R): R = {
    val ft = t.filter(label, p).warm()
    try f(ft) finally ft.drop()
  }

  /** Mean of a column on a (possibly filtered) table via the moments
    * vizketch — what the operator reads from the column summary popup.
    */
  private def meanOf(s: Spreadsheet, t: CachedTable, col: String): Double =
    s.range(t, col).mean

  private def countOf(s: Spreadsheet, t: CachedTable): Long = s.range(t, "Distance").count

  /** Per-group mean of a numeric axis read off a 2-D chart of counts:
    * Σ centre·count / Σ count over the axis buckets of each group, NaN for
    * an empty group. `count(g, b)` is the count of group g in axis bucket b.
    */
  private def centreMeans(groups: Int, axis: NumericBuckets)(count: (Int, Int) => Long): IndexedSeq[Double] =
    (0 until groups).map { g =>
      var w = 0.0
      var n = 0.0
      for (b <- 0 until axis.count) {
        val c = count(g, b).toDouble
        w += c * (axis.boundary(b) + axis.boundary(b + 1)) / 2.0
        n += c
      }
      if (n > 0) w / n else Double.NaN
    }

  /** Run a stacked histogram X=numeric, Y=string with up to `maxGroups`
    * exact groups and return per-group means of X.
    */
  private def groupMeans(s: Spreadsheet, t: CachedTable, xCol: String, yCol: String,
                         maxGroups: Int = 50): Seq[(String, Double)] = {
    val m  = s.range(t, xCol)
    val sy = s.stringRange(t, yCol)
    val yb = StringBucketsSketch.toBuckets(sy, maxGroups)
    val xb = NumericBuckets(m.min, m.max, 100)
    val sum = repro.engine.ExecutionTree.run(t, StackedHistogramSketch(xCol, xb, yCol, yb))
    centreMeans(sum.by, xb)((y, x) => sum.cell(x, y)).zipWithIndex
      .collect { case (mean, y) if !mean.isNaN => (yb.label(y), mean) }
  }

  // ---------- the twenty questions ----------

  private def timedAnswer(q: String, question: String, actions: Int)(f: => String): Answer = {
    val t0 = System.nanoTime()
    val text = f
    Answer(q, question, text, actions, (System.nanoTime() - t0) / 1e6)
  }

  def q1(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q1", "Who has more late flights, UA or AA?", 5) {
      def lateFrac(carrier: String): Double = withFiltered(t, carrier, eqStr("Carrier", carrier)) { ft =>
        val all  = countOf(s, ft)
        withFiltered(ft, "late", new RowPred {
          def apply(b: ColumnarBlock, i: Int): Boolean = b.column("DepDelay").asDouble(i) > 15.0
        })(lt => countOf(s, lt).toDouble / all)
      }
      val (ua, aa) = (lateFrac("UA"), lateFrac("AA"))
      f"${if (ua > aa) "UA" else "AA"} (UA late=${ua * 100}%.1f%% vs AA late=${aa * 100}%.1f%%)"
    }

  def q2(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q2", "Which airline has the least departure time delay?", 3) {
      val best = groupMeans(s, t, "DepDelay", "Carrier").minBy(_._2)
      f"${best._1} (mean delay ${best._2}%.1f min)"
    }

  def q3(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q3", "What is the typical delay of AA flight 11?", 4) {
      withFiltered(t, "aa11", new RowPred {
        def apply(b: ColumnarBlock, i: Int): Boolean =
          b.column("Carrier").asString(i) == "AA" && b.column("FlightNum").asDouble(i) == 11.0
      }) { ft =>
        val m = s.range(ft, "DepDelay")
        if (m.present == 0) "no such flights" else f"mean ${m.mean}%.1f min over ${m.present} flights"
      }
    }

  def q4(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q4", "How many flights leave NY each day?", 2) {
      withFiltered(t, "ny", eqStr("OriginState", "NY")) { ft =>
        f"≈${countOf(s, ft).toDouble / repro.data.Flights.PeriodDays}%.0f per day"
      }
    }

  def q5(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q5", "Is it better to fly from SFO to JFK or EWR?", 5) {
      def delay(dest: String) = withFiltered(t, s"sfo-$dest", eqStr2("Origin", "SFO", "Dest", dest))(
        ft => meanOf(s, ft, "ArrDelay"))
      val (jfk, ewr) = (delay("JFK"), delay("EWR"))
      f"${if (jfk < ewr) "JFK" else "EWR"} (JFK ${jfk}%.1f vs EWR ${ewr}%.1f min arrival delay)"
    }

  def q6(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q6", "How many destinations have direct flights from both SFO and SJC?", 4) {
      def dests(origin: String): Set[String] = withFiltered(t, origin, eqStr("Origin", origin)) { ft =>
        repro.engine.ExecutionTree.run(ft, MisraGriesSketch("Dest", 200)).counts.keySet
      }
      s"${(dests("SFO") intersect dests("SJC")).size} destinations"
    }

  def q7(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q7", "What is the best hour of the day to fly?", 2) {
      val m  = s.range(t, "DepDelay")
      val xb = NumericBuckets(m.min, m.max, 100)
      val hb = NumericBuckets(0, 24, 24)
      val heat = repro.engine.ExecutionTree.run(t,
        HeatmapSketch("DepHour", hb, "DepDelay", xb))
      val best = centreMeans(24, xb)(heat.cell).zipWithIndex
        .collect { case (mean, h) if !mean.isNaN => (h, mean) }.minBy(_._2)
      f"${best._1}:00 (mean delay ${best._2}%.1f min)"
    }

  def q8(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q8", "Which state has the worst departure delay?", 5) {
      val worst = groupMeans(s, t, "DepDelay", "OriginState").maxBy(_._2)
      f"${worst._1} (mean ${worst._2}%.1f min)"
    }

  def q9(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q9", "Which airline has the most flight cancellations?", 2) {
      withFiltered(t, "cancelled", eqNum("Cancelled", 1.0)) { ft =>
        val hh = s.heavyHittersStreaming(ft, "Carrier", 5).result
        s"${hh.head._1} (${hh.head._2.toLong} cancellations)"
      }
    }

  def q10(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q10", "Which date had the most flights?", 1) {
      val m  = s.range(t, "FlightDate")
      val xb = NumericBuckets(m.min, m.max + 1, math.min(500, (m.max - m.min).toInt + 1))
      val hist = repro.engine.ExecutionTree.run(t, HistogramSketch("FlightDate", xb))
      val b = hist.counts.indices.maxBy(hist.counts)
      val day = java.time.LocalDate.ofEpochDay(xb.boundary(b).toLong)
      s"around $day (bucket of ${hist.counts(b)} flights)"
    }

  def q11(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q11", "What is the longest flight in distance?", 3) {
      val nx = s.nextItems(t,
        Seq(SortCol("Distance", ascending = false), SortCol("Origin"), SortCol("Dest")), 1)
      val row = nx.result.rows.head._1
      s"${row.cells(1).render}→${row.cells(2).render} (${row.cells(0).render} miles)"
    }

  def q12(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q12", "Is there a significant difference between taxi times of UA and AA at the same airport?", 5) {
      def taxi(carrier: String) = withFiltered(t, s"$carrier-ord",
        eqStr2("Carrier", carrier, "Origin", "ORD"))(ft => s.range(ft, "TaxiIn"))
      val (ua, aa) = (taxi("UA"), taxi("AA"))
      val diff     = ua.mean - aa.mean
      val se       = math.sqrt(ua.variance / ua.present + aa.variance / aa.present)
      f"${if (math.abs(diff) > 2 * se) "yes" else "no"} (UA ${ua.mean}%.1f vs AA ${aa.mean}%.1f min at ORD)"
    }

  def q13(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q13", "Which city has the best and worst weather delays?", 6) {
      val means = groupMeans(s, t, "WeatherDelay", "Origin")
      val best  = means.minBy(_._2)
      val worst = means.maxBy(_._2)
      f"best ${best._1} (${best._2}%.2f), worst ${worst._1} (${worst._2}%.2f min)"
    }

  def q14(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q14", "Which airlines fly to Hawaii?", 2) {
      withFiltered(t, "hi", eqStr("DestState", "HI")) { ft =>
        val hh = s.heavyHittersStreaming(ft, "Carrier", 20).result
        s"${hh.size} airlines: ${hh.map(_._1).sorted.mkString(",")}"
      }
    }

  def q15(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q15", "Which Hawaii airport has the best departure delays?", 4) {
      withFiltered(t, "hi-origin", eqStr("OriginState", "HI")) { ft =>
        val best = groupMeans(s, ft, "DepDelay", "Origin").minBy(_._2)
        f"${best._1} (mean ${best._2}%.1f min)"
      }
    }

  def q16(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q16", "How many flights per day are there between LAX and SFO?", 3) {
      withFiltered(t, "lax-sfo", eqStr2("Origin", "LAX", "Dest", "SFO")) { ft =>
        f"≈${countOf(s, ft).toDouble / repro.data.Flights.PeriodDays}%.1f per day"
      }
    }

  def q17(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q17", "Which weekday has the least delay flying from ORD to EWR?", 3) {
      withFiltered(t, "ord-ewr", eqStr2("Origin", "ORD", "Dest", "EWR")) { ft =>
        val m  = s.range(ft, "DepDelay")
        val xb = NumericBuckets(m.min, m.max, 100)
        val db = NumericBuckets(1, 8, 7)
        val heat = repro.engine.ExecutionTree.run(ft, HeatmapSketch("DayOfWeek", db, "DepDelay", xb))
        val best = centreMeans(7, xb)(heat.cell).zipWithIndex
          .map { case (mean, d) => (d + 1, if (mean.isNaN) Double.MaxValue else mean) }.minBy(_._2)
        f"weekday ${best._1} (mean ${best._2}%.1f min)"
      }
    }

  def q18(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q18", "Which day in December has the most and least flights?", 2) {
      withFiltered(t, "dec", eqNum("Month", 12.0)) { ft =>
        val hist = repro.engine.ExecutionTree.run(ft,
          HistogramSketch("DayOfMonth", NumericBuckets(1, 32, 31)))
        val most  = hist.counts.indices.maxBy(hist.counts) + 1
        val least = hist.counts.indices.minBy(hist.counts) + 1
        s"most: Dec $most, least: Dec $least"
      }
    }

  def q19(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q19", "How many airlines stopped flying within the dataset period?", 2) {
      val m  = s.range(t, "FlightDate")
      val xb = NumericBuckets(m.min, m.max + 1, 50)
      val sy = s.stringRange(t, "Carrier")
      val yb = StringBucketsSketch.toBuckets(sy, 20)
      val sk = StackedHistogramSketch("FlightDate", xb, "Carrier", yb)
      val sum = repro.engine.ExecutionTree.run(t, sk)
      val stopped = (0 until sum.by).filter { y =>
        val lastActive = (0 until sum.bx).reverse.find(x => sum.cell(x, y) > 0).getOrElse(-1)
        lastActive >= 0 && lastActive < sum.bx - 5 // silent for the last ~10% of the period
      }.map(yb.label)
      s"${stopped.size} (${stopped.mkString(",")})"
    }

  def q20(s: Spreadsheet, t: CachedTable): Answer =
    timedAnswer("Q20", "How many flights took off but never landed?", 2) {
      // The dataset (like the real one — paper §7.5) has no landing
      // indicator beyond cancelled/diverted; verify and report that.
      withFiltered(t, "nolanding", new RowPred {
        def apply(b: ColumnarBlock, i: Int): Boolean =
          b.column("Cancelled").asDouble(i) == 0.0 && b.column("Diverted").asDouble(i) == 0.0 &&
            b.column("ArrDelay").isMissing(i)
      }) { ft =>
        val n = countOf(s, ft)
        if (n == 0) "cannot determine: dataset has no such information" else s"$n candidate rows"
      }
    }

  val all: Seq[(String, (Spreadsheet, CachedTable) => Answer)] = Seq(
    "Q1" -> (q1 _), "Q2" -> (q2 _), "Q3" -> (q3 _), "Q4" -> (q4 _), "Q5" -> (q5 _),
    "Q6" -> (q6 _), "Q7" -> (q7 _), "Q8" -> (q8 _), "Q9" -> (q9 _), "Q10" -> (q10 _),
    "Q11" -> (q11 _), "Q12" -> (q12 _), "Q13" -> (q13 _), "Q14" -> (q14 _), "Q15" -> (q15 _),
    "Q16" -> (q16 _), "Q17" -> (q17 _), "Q18" -> (q18 _), "Q19" -> (q19 _), "Q20" -> (q20 _),
  )
}

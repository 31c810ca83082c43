package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.TestData._
import repro.storage.{DenseMembership, SparseMembership}

class QuantileSketchSpec extends AnyFunSuite {

  private val n      = 50000
  private val values = randomDoubles(n, seed = 12)
  private val sort   = Seq(SortCol("x"))
  private val ord    = RowKey.ordering(sort)

  private def within5Sigma(got: Int, rate: Double, rows: Int): Boolean =
    math.abs(got - rate * rows) < 5 * math.sqrt(rows * rate * (1 - rate))

  test("quantile estimate is within the Theorem-2 rank bound") {
    val v    = 100 // scroll bar pixels
    val rate = SampleSize.rate(SampleSize.quantile(v), n.toLong)
    val s    = sketchAll(QuantileSketch(sort, rate), splitBlocks(values, 8))
    val sorted = values.sorted
    for (q <- Seq(0.1, 0.25, 0.5, 0.75, 0.9)) {
      val got  = QuantileSketch.quantileOf(s, q).get.cells.head.asInstanceOf[NumCell].v
      val rank = sorted.count(_ <= got).toDouble / n
      assert(math.abs(rank - q) < 3.0 / (2 * v) + 0.02, f"q=$q rank=$rank%.3f")
    }
  }

  test("the sample size is within five standard deviations of rate × rows") {
    val rate = 0.05
    val s    = sketchAll(QuantileSketch(sort, rate), splitBlocks(values, 8))
    assert(within5Sigma(s.rows.size, rate, n), s"sampled ${s.rows.size}")
  }

  test("small data: sample holds everything, quantile is exact") {
    val vals = Array(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    val s    = sketchAll(QuantileSketch(sort, 1.0), splitBlocks(vals, 3))
    assert(s.rows.size == 10)
    val med = QuantileSketch.quantileOf(s, 0.5).get.cells.head.asInstanceOf[NumCell].v
    assert(med == 6.0) // index floor(0.5*10)=5 of sorted
  }

  test("deterministic in seed; different seeds sample differently") {
    val a = sketchAll(QuantileSketch(sort, 0.01), splitBlocks(values, 4), seed = 1)
    val b = sketchAll(QuantileSketch(sort, 0.01), splitBlocks(values, 4), seed = 1)
    val c = sketchAll(QuantileSketch(sort, 0.01), splitBlocks(values, 4), seed = 2)
    assert(a.rows == b.rows)
    assert(a.rows != c.rows)
  }

  test("merge is the sorted union of both samples") {
    val sk = QuantileSketch(sort, 0.05)
    val s1 = sk.summarize(doubleBlockNamed("x", values.take(1000)), LeafCtx(0, 3))
    val s2 = sk.summarize(doubleBlockNamed("x", values.slice(1000, 2000)), LeafCtx(1, 3))
    val m  = sk.merge(s1, s2)
    assert(s1.rows.nonEmpty && s2.rows.nonEmpty)
    assert(m.rows == (s1.rows ++ s2.rows).sorted(ord))
  }

  test("samples of dense and sparse filtered blocks hold only members, about rate × members") {
    // The value of row i is i, so a sampled key names its row.
    val rows  = 20000
    val block = doubleBlockNamed("x", Array.tabulate(rows)(_.toDouble))
    val rate  = 0.1
    for ((kind, keep, cls) <- Seq[(String, Int => Boolean, Class[_])](
           ("dense", i => i % 3 != 0, classOf[DenseMembership]),
           ("sparse", i => i % 20 == 0, classOf[SparseMembership]))) {
      val f       = block.filtered(keep)
      val members = f.rowCount
      assert(f.membership.getClass == cls, kind)
      val s       = QuantileSketch(sort, rate).summarize(f, LeafCtx(0, 9))
      assert(s.rows.forall(k => keep(k.cells.head.asInstanceOf[NumCell].v.toInt)), kind)
      assert(within5Sigma(s.rows.size, rate, members), s"$kind sampled ${s.rows.size} of $members")
    }
  }

  test("empty input yields no quantile") {
    val s = QuantileSketch(sort, 0.5).zero
    assert(QuantileSketch.quantileOf(s, 0.5).isEmpty)
  }
}

class MisraGriesSpec extends AnyFunSuite {

  private val n    = 30000
  private val data = zipfStrings(n, 50, seed = 14)

  private def blocks(parts: Int) = {
    val size = (n + parts - 1) / parts
    (0 until parts).map(p => TestData.stringBlock("s", data.slice(p * size, math.min(n, (p + 1) * size))))
  }

  private def exactCounts: Map[String, Long] =
    data.groupBy(identity).view.mapValues(_.size.toLong).toMap

  test("with enough counters Misra-Gries is exact") {
    val got = sketchAll(MisraGriesSketch("s", 100), blocks(4))
    assert(got.counts == exactCounts)
  }

  test("undercount is bounded by n/(k+1)") {
    val k     = 10
    val got   = sketchAll(MisraGriesSketch("s", k), blocks(4))
    val exact = exactCounts
    got.counts.foreach { case (v, c) =>
      assert(c <= exact(v), s"$v overcounted")
      assert(exact(v) - c <= n.toLong / (k + 1) * 4, s"$v undercounted too much") // merged bound
    }
  }

  test("the true heaviest element survives with few counters") {
    val got   = sketchAll(MisraGriesSketch("s", 8), blocks(4))
    val top   = exactCounts.maxBy(_._2)._1
    assert(got.counts.contains(top))
    assert(HeavyHitters.top(got, 1).head._1 == top)
  }

  test("counter count never exceeds k after merges") {
    val k   = 7
    val got = sketchAll(MisraGriesSketch("s", k), blocks(13))
    assert(got.counts.size <= k)
  }

  test("tracks total rows inspected") {
    assert(sketchAll(MisraGriesSketch("s", 10), blocks(3)).sampled == n.toLong)
  }
}

class SamplingHeavyHittersSpec extends AnyFunSuite {

  private val n = 100000
  // ~30% "big", ~15% "mid", rest spread over 1000 rare keys.
  private val data: Seq[String] = {
    val rng = new SplitMix(15)
    Seq.fill(n) {
      val r = rng.nextDouble()
      if (r < 0.30) "big" else if (r < 0.45) "mid" else s"rare${rng.nextInt(1000)}"
    }
  }

  private def blocks(parts: Int) = {
    val size = (n + parts - 1) / parts
    (0 until parts).map(p => TestData.stringBlock("s", data.slice(p * size, math.min(n, (p + 1) * size))))
  }

  test("finds all 1/K-frequent values and no 1/4K-rare ones (Theorem 4)") {
    val k    = 10
    val rate = SampleSize.rate(SampleSize.heavyHitters(k), n)
    val got  = sketchAll(SamplingHeavyHittersSketch("s", rate), blocks(8))
    val selected = HeavyHitters.select(got, k).map(_._1).toSet
    assert(selected.contains("big"))
    assert(selected.contains("mid"))
    assert(selected.forall(v => v == "big" || v == "mid"), s"false positives: $selected")
  }

  test("estimates scale by the sampling rate") {
    val rate = 0.1
    val got  = sketchAll(SamplingHeavyHittersSketch("s", rate), blocks(8))
    val est  = got.estimate("big")
    val exact = data.count(_ == "big")
    assert(math.abs(est - exact) < 5 * math.sqrt(exact / rate))
  }

  test("deterministic in seed") {
    val a = sketchAll(SamplingHeavyHittersSketch("s", 0.05), blocks(4), seed = 2)
    val b = sketchAll(SamplingHeavyHittersSketch("s", 0.05), blocks(4), seed = 2)
    assert(a.counts == b.counts)
  }

  test("rate 1 counts exactly") {
    val got = sketchAll(SamplingHeavyHittersSketch("s", 1.0), blocks(4))
    assert(got.estimate("big") == data.count(_ == "big").toDouble)
  }
}

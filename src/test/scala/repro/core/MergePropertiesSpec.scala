package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

/** Property-based checks of the mergeable-summary law (§4.1):
  * summarize(D1 ⊎ D2) == merge(summarize(D1), summarize(D2)) for exact
  * sketches, under arbitrary data and split points.
  */
class MergePropertiesSpec extends AnyFunSuite {

  /** Run a ScalaCheck property and fail the ScalaTest test on falsification. */
  private def check(prop: Prop): Unit = {
    val result = org.scalacheck.Test.check(
      org.scalacheck.Test.Parameters.default.withMinSuccessfulTests(50), prop)
    assert(result.passed, result.status.toString)
  }

  private val dataGen: Gen[(List[Double], Int)] = for {
    xs    <- Gen.listOfN(200, Gen.choose(0.0, 100.0))
    split <- Gen.choose(0, xs.length)
  } yield (xs, split)

  private def halves(xs: List[Double], split: Int) = {
    val (a, b) = xs.splitAt(split)
    (TestData.doubleBlockNamed("x", a.toArray), TestData.doubleBlockNamed("x", b.toArray))
  }

  test("histogram summarize distributes over multiset union") {
    check(Prop.forAll(dataGen) { case (xs, split) =>
      val sk = StreamingHistogramSketch("x", NumericBuckets(0, 100, 13))
      val (b1, b2) = halves(xs, split)
      val merged = sk.merge(sk.summarize(b1, LeafCtx(0, 0)), sk.summarize(b2, LeafCtx(1, 0)))
      val whole  = sk.summarize(TestData.doubleBlockNamed("x", xs.toArray), LeafCtx(0, 0))
      merged.counts.toSeq == whole.counts.toSeq
    })
  }

  test("moments summarize distributes over multiset union") {
    check(Prop.forAll(dataGen) { case (xs, split) =>
      val sk = MomentsSketch("x")
      val (b1, b2) = halves(xs, split)
      val m = sk.merge(sk.summarize(b1, LeafCtx(0, 0)), sk.summarize(b2, LeafCtx(1, 0)))
      val w = sk.summarize(TestData.doubleBlockNamed("x", xs.toArray), LeafCtx(0, 0))
      m.count == w.count && m.min == w.min && m.max == w.max &&
        math.abs(m.sum - w.sum) < 1e-6
    })
  }

  test("next-items summarize distributes over multiset union") {
    check(Prop.forAll(dataGen) { case (xs, split) =>
      val sk = NextItemsSketch(Seq(SortCol("x")), 10)
      val (b1, b2) = halves(xs, split)
      val m = sk.merge(sk.summarize(b1, LeafCtx(0, 0)), sk.summarize(b2, LeafCtx(1, 0)))
      val w = sk.summarize(TestData.doubleBlockNamed("x", xs.toArray), LeafCtx(0, 0))
      m == w
    })
  }

  test("hll merge is union (register max)") {
    check(Prop.forAll(dataGen) { case (xs, split) =>
      val sk = HllSketch("x")
      val (b1, b2) = halves(xs, split)
      val m = sk.merge(sk.summarize(b1, LeafCtx(0, 0)), sk.summarize(b2, LeafCtx(1, 0)))
      val w = sk.summarize(TestData.doubleBlockNamed("x", xs.toArray), LeafCtx(0, 0))
      m.registers.toSeq == w.registers.toSeq
    })
  }

  test("merge is associative for histograms") {
    val tripleGen = Gen.listOfN(3, Gen.listOfN(60, Gen.choose(0.0, 100.0)))
    check(Prop.forAll(tripleGen) { parts =>
      val sk = StreamingHistogramSketch("x", NumericBuckets(0, 100, 7))
      val ss = parts.zipWithIndex.map { case (p, i) =>
        sk.summarize(TestData.doubleBlockNamed("x", p.toArray), LeafCtx(i, 0)) }
      val left  = sk.merge(sk.merge(ss(0), ss(1)), ss(2))
      val right = sk.merge(ss(0), sk.merge(ss(1), ss(2)))
      left.counts.toSeq == right.counts.toSeq
    })
  }

  test("quantile merge is order-insensitive") {
    check(Prop.forAll(dataGen) { case (xs, split) =>
      val sk = QuantileSketch(Seq(SortCol("x")), 0.3)
      val (b1, b2) = halves(xs, split)
      val s1 = sk.summarize(b1, LeafCtx(0, 0))
      val s2 = sk.summarize(b2, LeafCtx(1, 0))
      sk.merge(s1, s2).rows == sk.merge(s2, s1).rows
    })
  }
}

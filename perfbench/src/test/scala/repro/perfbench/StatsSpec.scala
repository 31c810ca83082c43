package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("tail is the highest percentile with ten samples beyond it") {
    val xs = (1 to 100).map(_.toDouble).reverse
    val t  = Stats.tail(xs).get
    assert(t.value == 90.0)
    assert(t.percentile == 90.0)
    assert(t.n == 100)
    assert(xs.count(_ > t.value) == 10)
  }

  test("tail moves to a higher percentile as samples grow") {
    val t = Stats.tail((1 to 1000).map(_.toDouble)).get
    assert(t.percentile == 99.0)
    assert(t.value == 990.0)
    val small = Stats.tail((1 to 15).map(_.toDouble)).get
    assert(small.value == 5.0)
    assert(math.abs(small.percentile - 100.0 / 3) < 1e-9)
  }

  test("no tail without more than ten samples") {
    assert(Stats.tail((1 to 10).map(_.toDouble)).isEmpty)
    assert(Stats.tail((1 to 11).map(_.toDouble)).get.value == 1.0)
  }

  test("median of odd and even counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("interval union counts overlaps once") {
    assert(Stats.unionLength(Nil) == 0)
    assert(Stats.unionLength(Seq((0L, 10L), (5L, 15L))) == 15)
    assert(Stats.unionLength(Seq((0L, 10L), (2L, 3L))) == 10)
    assert(Stats.unionLength(Seq((20L, 30L), (0L, 10L))) == 20)
    assert(Stats.unionLength(Seq((0L, 10L), (10L, 20L))) == 20)
    assert(Stats.unionLength(Seq((5L, 5L), (7L, 6L))) == 0)
  }

  test("self time is the span minus its children's union, clipped to the span") {
    assert(Stats.selfTime((0L, 100L), Nil) == 100)
    assert(Stats.selfTime((0L, 100L), Seq((10L, 30L), (20L, 40L), (60L, 70L))) == 60)
    assert(Stats.selfTime((0L, 100L), Seq((-50L, 10L), (90L, 150L))) == 80)
    assert(Stats.selfTime((0L, 100L), Seq((0L, 100L), (10L, 20L))) == 0)
  }
}

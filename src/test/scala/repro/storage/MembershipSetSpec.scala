package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import repro.core.SplitMix

class MembershipSetSpec extends AnyFunSuite {

  test("from() with all-true predicate yields FullMembership") {
    assert(MembershipSet.from(100, _ => true).isInstanceOf[FullMembership])
  }

  test("from() chooses dense representation above the density threshold") {
    val m = MembershipSet.from(100, i => i % 2 == 0) // 50% density
    assert(m.isInstanceOf[DenseMembership])
    assert(m.size == 50)
  }

  test("from() chooses sparse representation for low density") {
    val m = MembershipSet.from(1000, i => i % 100 == 0) // 1% density
    assert(m.isInstanceOf[SparseMembership])
    assert(m.size == 10)
  }

  test("contains agrees with the predicate for all representations") {
    for (mod <- Seq(2, 50)) {
      val m = MembershipSet.from(500, i => i % mod == 0)
      (0 until 500).foreach(i => assert(m.contains(i) == (i % mod == 0), s"mod=$mod i=$i"))
    }
  }

  test("iterator yields members in increasing order") {
    for (mod <- Seq(1, 3, 97)) {
      val m   = MembershipSet.from(1000, i => i % mod == 0)
      val got = m.iterator.toVector
      assert(got == got.sorted)
      assert(got == (0 until 1000).filter(_ % mod == 0).toVector)
    }
  }

  test("full membership size equals universe") {
    val m = MembershipSet.full(42)
    assert(m.size == 42 && m.universe == 42)
    assert(m.iterator.toVector == (0 until 42).toVector)
  }

  test("sampling at rate 1 from full membership returns everything") {
    val m = MembershipSet.full(100)
    assert(m.sample(1.0, new SplitMix(1)).toVector == (0 until 100).toVector)
  }

  test("sampling is deterministic in the rng seed") {
    val m  = MembershipSet.from(10000, i => i % 3 == 0)
    val s1 = m.sample(0.1, new SplitMix(5)).toVector
    val s2 = m.sample(0.1, new SplitMix(5)).toVector
    assert(s1 == s2)
    assert(s1 != m.sample(0.1, new SplitMix(6)).toVector)
  }

  test("sample returns only members, in increasing order") {
    for (mod <- Seq(2, 25)) {
      val m = MembershipSet.from(5000, i => i % mod == 0)
      val s = m.sample(0.3, new SplitMix(8)).toVector
      assert(s == s.sorted)
      s.foreach(i => assert(i % mod == 0))
    }
  }

  test("sample hit-rate approximates the Bernoulli rate") {
    for ((mk, name) <- Seq(
      (MembershipSet.full(100000), "full"),
      (MembershipSet.from(200000, (i: Int) => i % 2 == 0), "dense"),
      (MembershipSet.from(2000000, (i: Int) => i % 20 == 0), "sparse"))) {
      val rate = 0.1
      val n    = mk.sample(rate, new SplitMix(13)).size
      val exp  = mk.size * rate
      assert(math.abs(n - exp) < 4 * math.sqrt(exp), s"$name: got $n expected ~$exp")
    }
  }

  test("sampling uniformity: first and second half get similar counts") {
    val m     = MembershipSet.from(100000, i => i % 2 == 0)
    val picks = m.sample(0.2, new SplitMix(21)).toVector
    val (lo, hi) = picks.partition(_ < 50000)
    assert(math.abs(lo.size - hi.size) < 5 * math.sqrt(picks.size.toDouble))
  }

  test("dense sample is the same-seed universe sample filtered to members") {
    val m = MembershipSet.from(20000, i => i % 3 != 1)
    assert(m.isInstanceOf[DenseMembership])
    for (rate <- Seq(0.01, 0.3, 1.0)) {
      val universe = MembershipSet.full(20000).sample(rate, new SplitMix(17)).filter(m.contains).toVector
      assert(m.sample(rate, new SplitMix(17)).toVector == universe, s"rate=$rate")
    }
  }

  test("geometric skip with rate ~1 advances one by one") {
    val rng = new SplitMix(3)
    (1 to 100).foreach(_ => assert(MembershipSet.skip(1.0, rng) == 1))
  }

  test("empty membership behaves") {
    val m = MembershipSet.from(10, _ => false)
    assert(m.size == 0)
    assert(m.iterator.isEmpty)
    assert(m.sample(0.5, new SplitMix(1)).isEmpty)
  }
}

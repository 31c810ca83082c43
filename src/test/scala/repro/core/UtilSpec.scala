package repro.core

import org.scalatest.funsuite.AnyFunSuite

class SplitMixSpec extends AnyFunSuite {

  test("nextLong is deterministic for equal seeds") {
    val a = new SplitMix(42)
    val b = new SplitMix(42)
    assert((1 to 100).map(_ => a.nextLong()) == (1 to 100).map(_ => b.nextLong()))
  }

  test("different seeds diverge") {
    val a = new SplitMix(1)
    val b = new SplitMix(2)
    assert((1 to 10).map(_ => a.nextLong()) != (1 to 10).map(_ => b.nextLong()))
  }

  test("nextDouble stays in [0, 1)") {
    val rng = new SplitMix(7)
    (1 to 10000).foreach { _ =>
      val d = rng.nextDouble()
      assert(d >= 0.0 && d < 1.0)
    }
  }

  test("nextDouble mean is near 0.5") {
    val rng  = new SplitMix(9)
    val mean = (1 to 100000).map(_ => rng.nextDouble()).sum / 100000
    assert(math.abs(mean - 0.5) < 0.01)
  }

  test("nextInt respects bound and covers range") {
    val rng  = new SplitMix(11)
    val seen = (1 to 10000).map(_ => rng.nextInt(7)).toSet
    assert(seen == (0 until 7).toSet)
  }

  test("nextInt rejects non-positive bound") {
    intercept[IllegalArgumentException](new SplitMix(1).nextInt(0))
  }

  test("mix is deterministic and sensitive to both arguments") {
    assert(SplitMix.mix(1, 2) == SplitMix.mix(1, 2))
    assert(SplitMix.mix(1, 2) != SplitMix.mix(2, 1))
    assert(SplitMix.mix(1, 2) != SplitMix.mix(1, 3))
  }

  test("hashString is stable and spreads") {
    assert(SplitMix.hashString("UA") == SplitMix.hashString("UA"))
    val hashes = (1 to 1000).map(i => SplitMix.hashString(s"key$i")).toSet
    assert(hashes.size == 1000)
  }
}

class SerdeSpec extends AnyFunSuite {

  test("sizeOf matches toBytes length") {
    val obj = Vector.tabulate(100)(i => (i, s"v$i"))
    assert(Serde.sizeOf(obj) == Serde.toBytes(obj).length.toLong)
  }

  test("bigger payloads serialize bigger") {
    assert(Serde.sizeOf(new Array[Long](1000)) > Serde.sizeOf(new Array[Long](10)))
  }

  test("histogram summaries are small — O(screen), not O(data)") {
    val s = HistogramSummary(new Array[Long](100), 0, 0, 1000000000L, 1.0)
    assert(Serde.sizeOf(s) < 2048)
  }
}

class SampleSizeSpec extends AnyFunSuite {

  test("histogram target grows with V and with confidence") {
    assert(SampleSize.histogram(200) > SampleSize.histogram(100))
    assert(SampleSize.histogram(200, delta = 0.001) > SampleSize.histogram(200, delta = 0.1))
  }

  test("histogram target is independent of data size by construction") {
    val t = SampleSize.histogram(200)
    assert(t == SampleSize.histogram(200)) // no data-size argument exists
    assert(t > 0)
  }

  test("rate caps at full scan for small data") {
    assert(SampleSize.rate(10000, 500) == 1.0)
    assert(SampleSize.rate(10000, 0) == 1.0)
  }

  test("rate shrinks as data grows — super-linear scaling source") {
    val r1 = SampleSize.rate(10000, 100000)
    val r2 = SampleSize.rate(10000, 1000000)
    assert(r2 < r1)
    assert(math.abs(r2 - r1 / 10) < 1e-9)
  }

  test("heavy hitter target follows K² log(K/δ)") {
    val k = 20
    assert(SampleSize.heavyHitters(k, 0.01) ==
      math.ceil(k.toLong * k * math.log(k / 0.01)).toLong)
  }

  test("quantile target is the practical V², capped at 100,000 rows") {
    assert(SampleSize.quantile(100) == 10000L)
    assert(SampleSize.quantile(1000) == 100000L)
  }

  test("heatmap target is quadratic in 1/pmax") {
    assert(SampleSize.heatmap(20, 0.001) > SampleSize.heatmap(20, 0.01))
  }
}

package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.storage.{Column, DateColumn, DoubleColumn, LongColumn, StringColumn}

class BucketSpecSpec extends AnyFunSuite {

  test("NumericBuckets: equal widths cover the range") {
    val b = NumericBuckets(0, 100, 10)
    assert(b.indexOf(0.0) == 0)
    assert(b.indexOf(9.999) == 0)
    assert(b.indexOf(10.0) == 1)
    assert(b.indexOf(99.0) == 9)
  }

  test("NumericBuckets: max folds into last bucket") {
    val b = NumericBuckets(0, 100, 10)
    assert(b.indexOf(100.0) == 9)
  }

  test("NumericBuckets: out of range and NaN are -1") {
    val b = NumericBuckets(0, 100, 10)
    assert(b.indexOf(-0.001) == -1)
    assert(b.indexOf(100.001) == -1)
    assert(b.indexOf(Double.NaN) == -1)
  }

  test("NumericBuckets: degenerate range still buckets its single value") {
    val b = NumericBuckets(5, 5, 3)
    assert(b.indexOf(5.0) == 0)
  }

  test("NumericBuckets: boundary() is the left edge") {
    val b = NumericBuckets(10, 30, 4)
    assert(b.boundary(0) == 10.0)
    assert(b.boundary(2) == 20.0)
    assert(b.boundary(4) == 30.0)
  }

  test("NumericBuckets rejects invalid construction") {
    intercept[IllegalArgumentException](NumericBuckets(0, 10, 0))
    intercept[IllegalArgumentException](NumericBuckets(10, 0, 5))
  }

  test("StringBoundaryBuckets: binary search over boundaries") {
    val b = StringBoundaryBuckets(Array("a", "g", "n", "t"))
    assert(b.indexOf("a") == 0)
    assert(b.indexOf("c") == 0)
    assert(b.indexOf("g") == 1)
    assert(b.indexOf("m") == 1)
    assert(b.indexOf("n") == 2)
    assert(b.indexOf("z") == 3)
  }

  test("StringBoundaryBuckets: below first boundary and null are -1") {
    val b = StringBoundaryBuckets(Array("g", "n"))
    assert(b.indexOf("a") == -1)
    assert(b.indexOf(null) == -1)
  }

  test("StringBoundaryBuckets: every value lands in exactly one bucket") {
    val b = StringBoundaryBuckets(Array("b", "f", "p"))
    for (s <- Seq("b", "c", "e", "f", "o", "p", "zz"))
      assert(b.indexOf(s) >= 0 && b.indexOf(s) < b.count)
  }

  test("ExactStringBuckets: exact lookup, unknown is -1") {
    val b = ExactStringBuckets(Array("AA", "UA", "DL"))
    assert(b.indexOf("UA") == 1)
    assert(b.indexOf("WN") == -1)
    assert(b.indexOf(null) == -1)
    assert(b.count == 3)
  }

  test("labels are meaningful") {
    assert(ExactStringBuckets(Array("x", "y")).label(1) == "y")
    assert(StringBoundaryBuckets(Array("a", "m")).label(0) == "a")
    assert(NumericBuckets(0, 10, 2).label(0).startsWith("["))
  }

  test("indexOf(column, i) equals indexOf(value) for every column kind, and missing cells are -1") {
    val nulls = new java.util.BitSet(); nulls.set(2)
    val columns: Seq[(Column, Int)] = Seq( // (column, row of its missing cell)
      DoubleColumn(Array(1.5, 42.0, Double.NaN, 99.0, -3.0)) -> 2,
      LongColumn(Array(7L, 100L, 0L, 55L, 200L), nulls) -> 2,
      DateColumn(Array(10, 20, 30, 19000, 40), nulls) -> 2,
      StringColumn(Array("AA", "DL", "UA", "42.0"), Array(0, 1, -1, 2, 3)) -> 2,
    )
    val num  = NumericBuckets(0, 100, 10)
    val strb = StringBoundaryBuckets(Array("1", "5", "D", "U"))
    val strx = ExactStringBuckets(Array("AA", "UA", "7", "42.0", "1970-01-21"))
    for ((c, missingRow) <- columns; i <- 0 until c.size) {
      assert(num.indexOf(c, i) == num.indexOf(c.asDouble(i)), s"$c row $i")
      assert(strb.indexOf(c, i) == strb.indexOf(c.asString(i)), s"$c row $i")
      assert(strx.indexOf(c, i) == strx.indexOf(c.asString(i)), s"$c row $i")
      if (i == missingRow)
        assert(num.indexOf(c, i) == -1 && strb.indexOf(c, i) == -1 && strx.indexOf(c, i) == -1)
    }
    val Seq(doubles, longs, dates, strings) = columns.map(_._1)
    assert(num.indexOf(doubles, 1) == 4 && num.indexOf(longs, 3) == 5 && num.indexOf(dates, 0) == 1)
    assert(strx.indexOf(doubles, 1) == 3 && strx.indexOf(longs, 0) == 2 && strx.indexOf(dates, 1) == 4)
    assert(strb.indexOf(strings, 3) == 3 && strx.indexOf(strings, 0) == 0)
  }
}

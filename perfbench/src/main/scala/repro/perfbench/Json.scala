package repro.perfbench

/** A named measurement with its unit, as printed in the result line. */
final case class Metric(name: String, value: Double, unit: String)

/** The little JSON the benchmark writes: result lines, records, spans. */
object Json {
  sealed trait Value { def render: String }
  case object Null extends Value { def render = "null" }
  final case class Bool(b: Boolean) extends Value { def render: String = b.toString }
  final case class Num(d: Double) extends Value {
    def render: String =
      if (d.isNaN || d.isInfinite) "null"
      else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
      else d.toString
  }
  final case class Str(s: String) extends Value {
    def render: String = {
      val b = new StringBuilder("\"")
      s.foreach {
        case '"'            => b ++= "\\\""
        case '\\'           => b ++= "\\\\"
        case '\n'           => b ++= "\\n"
        case c if c < ' '   => b ++= f"\\u${c.toInt}%04x"
        case c              => b += c
      }
      (b += '"').toString
    }
  }
  final case class Arr(xs: Seq[Value]) extends Value {
    def render: String = xs.map(_.render).mkString("[", ", ", "]")
  }
  final case class Obj(fields: Seq[(String, Value)]) extends Value {
    def render: String = fields.map { case (k, v) => s"${Str(k).render}: ${v.render}" }.mkString("{", ", ", "}")
  }

  def obj(fields: (String, Value)*): Obj = Obj(fields)

  def metrics(ms: Seq[Metric]): Obj =
    Obj(ms.map(m => m.name -> obj("value" -> Num(m.value), "unit" -> Str(m.unit))))
}

package repro.core.functions

import scala.collection.immutable.TreeMap

/** The shared feature-function library (the JVM analogue of the paper's
  * "C++ library functions shared by the offline and online execution
  * engines", §3.1/§4.2). Every OpenMLDB-SQL aggregate is an incremental
  * state: the offline path wraps these states in Spark `Aggregator`s and
  * the online request engine folds window scans through the very same
  * code, which is what makes offline and online results consistent by
  * construction.
  *
  * All states are serializable (Kryo buffer encoding on the Spark side)
  * and order-sensitive states document their required input order.
  */
object AggCore {

  /** Incremental aggregate state: update with one input, merge with a
    * peer state (for partial aggregation), finish to the output value.
    */
  trait State[-I, O] extends Serializable {
    def update(in: I): Unit
    def result: O
  }

  /** A state over one numeric column. `add` is the primitive entry point
    * for a non-null value; the boxed `update` (what the Spark wrappers
    * call) skips nulls and delegates to it.
    */
  trait DoubleState extends State[java.lang.Double, java.lang.Double] {
    def add(v: Double): Unit
    final def update(in: java.lang.Double): Unit = if (in != null) add(in.doubleValue)
  }

  // ---------------------------------------------------------------- basics

  final class CountState extends State[Any, Long] {
    var n = 0L
    def update(in: Any): Unit = if (in != null) n += 1
    def merge(o: CountState): Unit = n += o.n
    def result: Long = n
  }

  final class SumState extends DoubleState {
    var s = 0.0; var any = false
    def add(v: Double): Unit = { s += v; any = true }
    def merge(o: SumState): Unit = { s += o.s; any ||= o.any }
    def result: java.lang.Double = if (any) s else null
  }

  final class AvgState extends DoubleState {
    var s = 0.0; var n = 0L
    def add(v: Double): Unit = { s += v; n += 1 }
    def merge(o: AvgState): Unit = { s += o.s; n += o.n }
    def result: java.lang.Double = if (n == 0) null else s / n
  }

  final class MinState extends DoubleState {
    var m = 0.0; var any = false
    def add(v: Double): Unit = if (!any || v < m) { m = v; any = true }
    def merge(o: MinState): Unit = if (o.any) add(o.m)
    def result: java.lang.Double = if (any) m else null
  }

  final class MaxState extends DoubleState {
    var m = 0.0; var any = false
    def add(v: Double): Unit = if (!any || v > m) { m = v; any = true }
    def merge(o: MaxState): Unit = if (o.any) add(o.m)
    def result: java.lang.Double = if (any) m else null
  }

  final class DistinctCountState extends State[String, Long] {
    var seen: Set[String] = Set.empty
    def update(in: String): Unit = if (in != null) seen += in
    def merge(o: DistinctCountState): Unit = seen ++= o.seen
    def result: Long = seen.size.toLong
  }

  // ------------------------------------------------- OpenMLDB-specific fns

  /** topn_frequency(col, n): the top-n keys by occurrence frequency,
    * ties broken by key ascending, joined with ",". (Table 1, §4.1 (1).)
    */
  final class TopNFreqState(var n: Int) extends State[String, String] {
    var freq: Map[String, Long] = Map.empty
    def update(in: String): Unit =
      if (in != null) freq = freq.updated(in, freq.getOrElse(in, 0L) + 1)
    def merge(o: TopNFreqState): Unit =
      o.freq.foreach { case (k, c) => freq = freq.updated(k, freq.getOrElse(k, 0L) + c) }
    def result: String =
      freq.toSeq.sortBy { case (k, c) => (-c, k) }.take(n).map(_._1).mkString(",")
  }

  /** avg_cate_where(value, cond, category): average of values passing the
    * condition, grouped by category; output "cat:avg" pairs sorted by
    * category, joined with ",". (§4.1 (2).)
    */
  final class AvgCateWhereState extends State[(java.lang.Double, java.lang.Boolean, String), String] {
    var acc: TreeMap[String, (Double, Long)] = TreeMap.empty
    def update(in: (java.lang.Double, java.lang.Boolean, String)): Unit = {
      val (v, cond, cate) = in
      if (v != null && cond != null) add(v.doubleValue, cond.booleanValue, cate)
    }
    /** Primitive entry point for a row whose value and condition are non-null. */
    def add(v: Double, cond: Boolean, cate: String): Unit =
      if (cond && cate != null) {
        val (s, n) = acc.getOrElse(cate, (0.0, 0L))
        acc = acc.updated(cate, (s + v, n + 1))
      }
    def merge(o: AvgCateWhereState): Unit =
      o.acc.foreach { case (k, (s, n)) =>
        val (s0, n0) = acc.getOrElse(k, (0.0, 0L)); acc = acc.updated(k, (s0 + s, n0 + n))
      }
    def result: String =
      acc.iterator.map { case (k, (s, n)) => s"$k:${s / n}" }.mkString(",")
  }

  /** drawdown(col): maximum decline fraction from a running peak to a
    * subsequent trough (§4.1 (3)). ORDER-SENSITIVE: inputs must arrive
    * oldest-to-newest. 0.0 when the series never declines.
    */
  final class DrawdownState extends DoubleState {
    var peak: Double = Double.NaN
    var maxDd: Double = 0.0
    var any = false
    def add(v: Double): Unit = {
      if (!any) { peak = v; any = true }
      else {
        if (v > peak) peak = v
        else if (peak > 0) maxDd = math.max(maxDd, (peak - v) / peak)
      }
    }
    def result: java.lang.Double = if (any) maxDd else null
  }

  /** ew_avg(col, alpha): exponentially weighted average with smoothing
    * factor alpha in (0, 1]; weight of the i-th most recent value is
    * (1-alpha)^i (pandas `ewm(alpha).mean()` of the last element).
    * ORDER-SENSITIVE: inputs oldest-to-newest.
    */
  final class EwAvgState(var alpha: Double) extends DoubleState {
    var num = 0.0; var den = 0.0; var any = false
    def add(v: Double): Unit = {
      num = v + (1 - alpha) * num
      den = 1 + (1 - alpha) * den
      any = true
    }
    def result: java.lang.Double = if (any) num / den else null
  }

  // -------------------------------------------------------- scalar helpers

  /** split_by_key("a:1,b:2", ",", ":") == Seq("a", "b") (§4.1 (4)). */
  def splitByKey(s: String, delim: String, kvDelim: String): Seq[String] =
    if (s == null) null
    else s.split(java.util.regex.Pattern.quote(delim), -1).toSeq
      .filter(_.nonEmpty)
      .map { seg =>
        val i = seg.indexOf(kvDelim)
        if (i < 0) seg else seg.substring(0, i)
      }

  /** Stable non-negative feature hash (murmur-like) for discrete
    * signatures (§4.1 (5)); `dim` buckets.
    */
  def featureHash(v: String, dim: Int): Int = {
    var h = 1125899906842597L
    v.foreach(c => h = 31 * h + c)
    (((h % dim) + dim) % dim).toInt
  }

  /** multiclass_label: numeric-like value to a dense non-negative int
    * class label; strings are hashed into 2^20 classes.
    */
  def multiclassLabel(v: Any): Integer = v match {
    case null       => null
    case i: Int     => i
    case l: Long    => l.toInt
    case d: Double  => d.toInt
    case f: Float   => f.toInt
    case s: String  => featureHash(s, 1 << 20)
    case other      => featureHash(other.toString, 1 << 20)
  }
}

package repro.core.online

import scala.collection.mutable.ArrayBuffer
import repro.core._
import repro.core.functions.AggCore

/** Online Request Mode executor (§3.2 (3)): each request tuple is
  * *virtually inserted* into the primary table, the deployed
  * [[FeatureSpec]] runs against the stores, and one feature row comes
  * back. All aggregates fold the exact [[AggCore]] states the offline
  * Spark plan uses.
  *
  * The spec is compiled once, in the constructor, into a request plan
  * (§3.1): per window, the columns its features read, grouped by how they
  * are read (as doubles, strings or booleans), and per feature an
  * evaluator bound either to a raw fold over the window's frame or to a
  * [[PreAggTable]]. A request then reads each referenced column of each
  * frame row once, into primitive arrays, and folds every feature over
  * those arrays.
  *
  * Long-window features can be served from a [[PreAggTable]] hierarchy
  * (per `(window, column)` binding) instead of raw scans — the §5.1
  * optimization; the raw edges still come from the skiplist.
  */
final class RequestEngine(
    spec: FeatureSpec,
    tables: Map[String, OnlineTable],
    preAgg: Map[(String, String), PreAggTable] = Map.empty) {
  import RequestEngine._

  private val primary = tables(spec.primary)

  /** Ingest a data tuple into a table (and its pre-aggregators). */
  def insert(table: String, row: Map[String, Any]): Unit = {
    val t = tables(table)
    t.put(row)
    if (table == spec.primary) {
      val ts = num(row(t.tsCol)).toLong
      preAgg.foreach { case ((_, valCol), pa) =>
        row.get(valCol).filter(_ != null)
          .foreach(v => pa.insert(String.valueOf(row(t.keyCol)), ts, num(v)))
      }
    }
  }

  // ------------------------------------------------------- compiled plan

  private final class WindowPlan(val w: WindowDef) {
    val sources: Array[OnlineTable] = (spec.primary +: w.unionTables).map(tables).toArray
    val doubleCols = ArrayBuffer.empty[String]
    val stringCols = ArrayBuffer.empty[String]
    val boolCols   = ArrayBuffer.empty[String]
    /** (output index, fold over the frame) */
    val raw = ArrayBuffer.empty[(Int, Frame => Any)]
    /** (output index, pre-agg evaluator of (key, ts, request)) */
    val pre = ArrayBuffer.empty[(Int, (String, Long, Map[String, Any]) => Any)]

    private def idx(cols: ArrayBuffer[String], c: String): Int = {
      val i = cols.indexOf(c)
      if (i >= 0) i else { cols += c; cols.size - 1 }
    }
    def doubleCol(c: String): Int = idx(doubleCols, c)
    def stringCol(c: String): Int = idx(stringCols, c)
    def boolCol(c: String): Int = idx(boolCols, c)

    /** Stored rows of the primary and union tables in [t - range, t],
      * stably sorted by ts: primary rows in scan order, then each union
      * table in declared order.
      */
    private def stored(key: String, t: Long): Array[Stored] = {
      val buf = ArrayBuffer.empty[Stored]
      var src = 0
      while (src < sources.length) {
        val s = src
        sources(s).entries(key, t - w.rangeMs, t).foreach(e => buf += new Stored(e.ts, e.payload, s))
        src += 1
      }
      val rows = buf.toArray
      java.util.Arrays.sort(rows, StoredByTs) // stable
      rows
    }

    /** Each referenced column of each frame row, read once. */
    def frame(key: String, t: Long, req: Map[String, Any]): Frame = {
      val rows = stored(key, t)
      val n = rows.length + 1
      val dc = new Cells(doubleCols, rows, req)
      val doubles = new Array[Array[Double]](doubleCols.size)
      val present = new Array[Array[Boolean]](doubleCols.size)
      var c = 0
      while (c < doubleCols.size) {
        val xs = new Array[Double](n)
        val ok = new Array[Boolean](n)
        var i = 0
        while (i < n) {
          val v = dc(c, i)
          if (v != null) { xs(i) = num(v); ok(i) = true }
          i += 1
        }
        doubles(c) = xs; present(c) = ok
        c += 1
      }
      val sc = new Cells(stringCols, rows, req)
      val strings = Array.tabulate(stringCols.size, n) { (c, i) => val v = sc(c, i); if (v == null) null else String.valueOf(v) }
      val bc = new Cells(boolCols, rows, req)
      val bools = Array.tabulate(boolCols.size, n) { (c, i) =>
        bc(c, i) match {
          case null                 => null
          case b: java.lang.Boolean => b
          case x                    => java.lang.Boolean.valueOf(x.toString.toBoolean)
        }
      }
      new Frame(n, doubles, present, strings, bools)
    }

    /** Column `c` of `cols` in frame row `i` (the request row is the last
      * one); null where the row lacks the column or holds a null.
      */
    private final class Cells(cols: ArrayBuffer[String], rows: Array[Stored], req: Map[String, Any]) {
      private val slots = sources.map(tbl => cols.iterator.map(tbl.slotOf).toArray)
      def apply(c: Int, i: Int): AnyRef =
        if (i == rows.length) req.getOrElse(cols(c), null).asInstanceOf[AnyRef]
        else {
          val r = rows(i)
          OnlineTable.value(r.row, slots(r.src)(c))
        }
    }
  }

  private val outNames: Array[String] = spec.features.map(_.name).toArray

  private val plans: Array[WindowPlan] = {
    val byName = scala.collection.mutable.LinkedHashMap.empty[String, WindowPlan]
    spec.features.zipWithIndex.foreach { case (f, i) =>
      val p = byName.getOrElseUpdate(f.window, new WindowPlan(spec.window(f.window)))
      preAggEval(f.fn, p.w) match {
        case Some(e) => p.pre += ((i, e))
        case None    => p.raw += ((i, rawFold(f.fn, p)))
      }
    }
    byName.values.toArray
  }

  /** Fold one feature over a frame through its shared [[AggCore]] state. */
  private def rawFold(fn: FeatureFn, p: WindowPlan): Frame => Any = fn match {
    case FeatureFn.Count               => f => f.n.toLong
    case FeatureFn.Sum(c)              => val j = p.doubleCol(c); f => foldDoubles(new AggCore.SumState, f, j)
    case FeatureFn.Avg(c)              => val j = p.doubleCol(c); f => foldDoubles(new AggCore.AvgState, f, j)
    case FeatureFn.Min(c)              => val j = p.doubleCol(c); f => foldDoubles(new AggCore.MinState, f, j)
    case FeatureFn.Max(c)              => val j = p.doubleCol(c); f => foldDoubles(new AggCore.MaxState, f, j)
    case FeatureFn.Drawdown(c)         => val j = p.doubleCol(c); f => foldDoubles(new AggCore.DrawdownState, f, j)
    case FeatureFn.EwAvg(c, a)         => val j = p.doubleCol(c); f => foldDoubles(new AggCore.EwAvgState(a), f, j)
    case FeatureFn.DistinctCount(c)    => val j = p.stringCol(c); f => foldStrings(new AggCore.DistinctCountState, f, j)
    case FeatureFn.TopNFreq(c, n)      => val j = p.stringCol(c); f => foldStrings(new AggCore.TopNFreqState(n), f, j)
    case FeatureFn.AvgCateWhere(v, cond, cate) =>
      val (jv, jc, jk) = (p.doubleCol(v), p.boolCol(cond), p.stringCol(cate))
      f => {
        val st = new AggCore.AvgCateWhereState
        val (xs, ok, cs, ks) = (f.doubles(jv), f.present(jv), f.bools(jc), f.strings(jk))
        var i = 0
        while (i < f.n) {
          if (ok(i) && cs(i) != null) st.add(xs(i), cs(i), ks(i))
          i += 1
        }
        st.result
      }
  }

  /** §5.1 fast path: count/sum/avg/min/max over a pre-aggregated long
    * window merge bucket partials plus the raw edge and the virtual row.
    * Bound once per feature; None when no pre-agg table serves it.
    */
  private def preAggEval(fn: FeatureFn, w: WindowDef): Option[(String, Long, Map[String, Any]) => Any] = {
    if (w.unionTables.nonEmpty) return None
    def on(c: String)(finish: Partial => Any) = preAgg.get((w.name, c)).map(pa => (c, pa, finish))
    val binding: Option[(String, PreAggTable, Partial => Any)] = fn match {
      case FeatureFn.Sum(c) => on(c)(m => if (m.cnt == 0) null else m.sum)
      case FeatureFn.Avg(c) => on(c)(m => if (m.cnt == 0) null else m.sum / m.cnt)
      case FeatureFn.Min(c) => on(c)(m => if (m.cnt == 0) null else m.min)
      case FeatureFn.Max(c) => on(c)(m => if (m.cnt == 0) null else m.max)
      // Count can ride on any aggregator of this window (bucket `cnt`
      // counts rows with a non-null value column — the deployment contract).
      case FeatureFn.Count  =>
        preAgg.collectFirst { case ((wn, c), pa) if wn == w.name => (c, pa, (m: Partial) => m.cnt) }
      case _ => None
    }
    binding.map { case (valCol, pa, finish) =>
      (key: String, t: Long, req: Map[String, Any]) => {
        // Raw edges skip rows whose value is missing or null, as the
        // buckets do.
        val slot = primary.slotOf(valCol)
        val merged0 = pa.query(key, t - w.rangeMs, t, (lo, hi) =>
          primary.entries(key, lo, hi).flatMap { e =>
            val v = OnlineTable.value(e.payload, slot)
            if (v == null) None else Some((e.ts, num(v)))
          })
        // The virtual request row participates in its own frame.
        val merged = req.getOrElse(valCol, null) match {
          case null if fn == FeatureFn.Count => merged0.add(0.0)
          case null                          => merged0
          case v                             => merged0.add(num(v))
        }
        finish(merged)
      }
    }
  }

  /** Serve one request tuple: virtual insert + feature computation. The
    * tuple is NOT persisted (mirroring OpenMLDB request mode).
    */
  def request(req: Map[String, Any]): Map[String, Any] = {
    val values = new Array[Any](outNames.length)
    plans.foreach { p =>
      val key = String.valueOf(req(p.w.keyCol))
      val t   = num(req(p.w.tsCol)).toLong
      p.pre.foreach { case (i, e) => values(i) = e(key, t, req) }
      if (p.raw.nonEmpty) {
        val f = p.frame(key, t, req)
        p.raw.foreach { case (i, fold) => values(i) = fold(f) }
      }
    }
    val out = Map.newBuilder[String, Any]
    out ++= req
    var i = 0
    while (i < values.length) { out += outNames(i) -> values(i); i += 1 }
    spec.lastJoins.foreach { lj =>
      val key = String.valueOf(req(lj.keyCol))
      val ts  = num(req(spec.tsCol)).toLong
      val hit = tables(lj.table).latest(key, ts).map(_._2)
      lj.valCols.foreach { v =>
        out += s"${lj.prefix}$v" -> hit.map(_.getOrElse(v, null)).orNull
      }
    }
    out.result()
  }
}

object RequestEngine {
  /** One window's frame for one request, column-major: `n` rows oldest
    * first, the request row last. A value the row lacks, or holds as null,
    * is absent: `present(c)(i)` is false, or the string/boolean is null.
    */
  private final class Frame(val n: Int, val doubles: Array[Array[Double]], val present: Array[Array[Boolean]],
                            val strings: Array[Array[String]], val bools: Array[Array[java.lang.Boolean]])

  /** A stored frame row and the index of the table it came from. */
  private final class Stored(val ts: Long, val row: Array[AnyRef], val src: Int)

  private val StoredByTs: java.util.Comparator[Stored] = (a, b) => java.lang.Long.compare(a.ts, b.ts)

  private def num(v: Any): Double = v match {
    case d: Double => d
    case f: Float  => f.toDouble
    case l: Long   => l.toDouble
    case i: Int    => i.toDouble
    case s: Short  => s.toDouble
    case other     => other.toString.toDouble
  }

  private def foldDoubles(st: AggCore.DoubleState, f: Frame, j: Int): Any = {
    val xs = f.doubles(j)
    val ok = f.present(j)
    var i = 0
    while (i < f.n) {
      if (ok(i)) st.add(xs(i))
      i += 1
    }
    st.result
  }

  private def foldStrings(st: AggCore.State[String, _], f: Frame, j: Int): Any = {
    val xs = f.strings(j)
    var i = 0
    while (i < f.n) { st.update(xs(i)); i += 1 }
    st.result
  }
}

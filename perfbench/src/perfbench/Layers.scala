package perfbench

import repro.core._
import repro.core.functions.AggCore
import repro.core.online.{OnlineTable, PreAggTable, RequestEngine}
import repro.core.online.WindowUnionStream.{KeyState, SelfAdjustingUnion, StreamTuple}
import repro.storage.{FieldType, RowCodec}

/** What a workload hands to the traced run: its own engine, tables and
  * data, plus how to read a value, a category and a condition from its
  * rows for the per-function fold measurements.
  */
final case class LayerInput(
    spec: FeatureSpec,
    tables: Map[String, OnlineTable],
    engine: RequestEngine,
    preAgg: Map[(String, String), PreAggTable],
    requests: IndexedSeq[Map[String, Any]],
    lookupTable: String,
    lookupKeyCol: String,
    valCol: String,
    cateOf: Map[String, Any] => String,
    condOf: Map[String, Any] => java.lang.Boolean,
    sampleRows: IndexedSeq[Map[String, Any]],
    schema: IndexedSeq[(String, FieldType)],
    stream: IndexedSeq[StreamTuple],
    streamWindowMs: Long,
    hot: (String, Long),
    cold: (String, Long))

/** The traced run: replays sampled requests and tuples through each
  * layer's public calls, recording one span per call, and times the
  * layer microbenchmarks on the workload's own data.
  */
object Layers {
  val FoldFns: Seq[String] = Seq("count", "sum", "avg", "min", "max", "distinct_count",
    "topn_frequency", "avg_cate_where", "ew_avg", "drawdown")
  val PreAggLevels: Seq[Long] = Seq(1000L, 60000L, 3600000L)

  def num(x: Any): java.lang.Double = x match {
    case null      => null
    case d: Double => d
    case l: Long   => l.toDouble
    case i: Int    => i.toDouble
    case other     => other.toString.toDouble
  }
  private def str(x: Any): String = if (x == null) null else String.valueOf(x)
  private def bool(x: Any): java.lang.Boolean = x match {
    case null       => null
    case b: Boolean => b
    case other      => other.toString.toBoolean
  }

  type Row = Map[String, Any]

  /** Fold one function over frame rows (oldest first) through AggCore.
    * Each case has its own loop, so no call site inside sees more than one
    * or two closure classes and the JIT can inline them, as it does in the
    * engine's own folds.
    */
  def foldWith(kind: String, frame: Array[Row], v: Row => java.lang.Double, c: Row => String,
               b: Row => java.lang.Boolean, n: Int = 3, alpha: Double = 0.5): Any = {
    var i = 0
    kind match {
      case "count" => frame.length.toLong
      case "sum" =>
        val s = new AggCore.SumState; while (i < frame.length) { s.update(v(frame(i))); i += 1 }; s.result
      case "avg" =>
        val s = new AggCore.AvgState; while (i < frame.length) { s.update(v(frame(i))); i += 1 }; s.result
      case "min" =>
        val s = new AggCore.MinState; while (i < frame.length) { s.update(v(frame(i))); i += 1 }; s.result
      case "max" =>
        val s = new AggCore.MaxState; while (i < frame.length) { s.update(v(frame(i))); i += 1 }; s.result
      case "distinct_count" =>
        val s = new AggCore.DistinctCountState; while (i < frame.length) { s.update(c(frame(i))); i += 1 }; s.result
      case "topn_frequency" =>
        val s = new AggCore.TopNFreqState(n); while (i < frame.length) { s.update(c(frame(i))); i += 1 }; s.result
      case "avg_cate_where" =>
        val s = new AggCore.AvgCateWhereState
        while (i < frame.length) { val r = frame(i); s.update((v(r), b(r), c(r))); i += 1 }
        s.result
      case "ew_avg" =>
        val s = new AggCore.EwAvgState(alpha); while (i < frame.length) { s.update(v(frame(i))); i += 1 }; s.result
      case "drawdown" =>
        val s = new AggCore.DrawdownState; while (i < frame.length) { s.update(v(frame(i))); i += 1 }; s.result
    }
  }

  /** The fold a spec feature asks for, reading the columns it names. */
  def foldFeature(fn: FeatureFn, frame: Array[Row]): Any = {
    def col(c: String): Row => java.lang.Double = r => num(r.getOrElse(c, null))
    def s(c: String): Row => String = r => str(r.getOrElse(c, null))
    val none: Row => String = _ => null
    fn match {
      case FeatureFn.Count            => foldWith("count", frame, null, none, null)
      case FeatureFn.Sum(c)           => foldWith("sum", frame, col(c), none, null)
      case FeatureFn.Avg(c)           => foldWith("avg", frame, col(c), none, null)
      case FeatureFn.Min(c)           => foldWith("min", frame, col(c), none, null)
      case FeatureFn.Max(c)           => foldWith("max", frame, col(c), none, null)
      case FeatureFn.DistinctCount(c) => foldWith("distinct_count", frame, null, s(c), null)
      case FeatureFn.TopNFreq(c, n)   => foldWith("topn_frequency", frame, null, s(c), null, n)
      case FeatureFn.AvgCateWhere(v, cond, cate) =>
        foldWith("avg_cate_where", frame, col(v), s(cate), r => bool(r.getOrElse(cond, null)))
      case FeatureFn.EwAvg(c, a)      => foldWith("ew_avg", frame, col(c), none, null, alpha = a)
      case FeatureFn.Drawdown(c)      => foldWith("drawdown", frame, col(c), none, null)
    }
  }

  /** Which pre-agg table serves a feature, mirroring the engine's rule. */
  private def preAggFor(in: LayerInput, f: Feature): Option[(String, PreAggTable)] = {
    val w = in.spec.window(f.window)
    if (w.unionTables.nonEmpty) None
    else f.fn match {
      case FeatureFn.Sum(c) => in.preAgg.get((w.name, c)).map((c, _))
      case FeatureFn.Avg(c) => in.preAgg.get((w.name, c)).map((c, _))
      case FeatureFn.Min(c) => in.preAgg.get((w.name, c)).map((c, _))
      case FeatureFn.Max(c) => in.preAgg.get((w.name, c)).map((c, _))
      case FeatureFn.Count  => in.preAgg.collectFirst { case ((wn, c), pa) if wn == w.name => (c, pa) }
      case _                => None
    }
  }

  /** Raw rows of a pre-agg edge; rows without a value are skipped, as the
    * buckets skip them.
    */
  private def rawEdge(t: OnlineTable, key: String, valCol: String)(lo: Long, hi: Long): Iterator[(Long, Double)] =
    t.scan(key, lo, hi).flatMap { case (ts, r) => Option(num(r.getOrElse(valCol, null))).map(v => (ts, v.doubleValue)) }

  private def tsOf(r: Row, col: String): Long = num(r(col)).longValue

  /** A window's frame for a request: stored rows of the primary and union
    * tables in [t - range, t], plus the request row, oldest first.
    */
  private def frame(in: LayerInput, w: WindowDef, req: Row, tr: Tracer, id: Int): (Array[Row], Int) = {
    val key = String.valueOf(req(w.keyCol))
    val t = tsOf(req, w.tsCol)
    val stored = tr.span("storage.scan", id) {
      (in.spec.primary +: w.unionTables).iterator
        .flatMap(n => in.tables(n).scan(key, t - w.rangeMs, t).map(_._2)).toArray
    }
    (stored :+ req).sortBy(r => tsOf(r, w.tsCol)) -> stored.length
  }

  final case class ReplayCounts(var requests: Int = 0, var scanned: Long = 0, var frameRows: Long = 0,
                                var buckets: Long = 0, var raw: Long = 0,
                                var selfNs: Double = 0, var selfN: Int = 0, var engineFailures: Int = 0)

  /** The engine's own layer calls for one request, made from outside it. */
  private def mirror(in: LayerInput, req: Row, id: Int): Unit = {
    val frames = scala.collection.mutable.HashMap.empty[String, Array[Row]]
    in.spec.features.foreach { f =>
      preAggFor(in, f) match {
        case Some((c, p)) =>
          val fw = in.spec.window(f.window)
          val k = String.valueOf(req(fw.keyCol))
          val ft = tsOf(req, fw.tsCol)
          p.query(k, ft - fw.rangeMs, ft, rawEdge(in.tables(in.spec.primary), k, c))
        case None =>
          foldFeature(f.fn, frames.getOrElseUpdate(f.window, frame(in, in.spec.window(f.window), req, Tracer.Off, id)._1))
      }
    }
    in.spec.lastJoins.foreach { lj =>
      in.tables(lj.table).latest(String.valueOf(req(lj.keyCol)), tsOf(req, in.spec.windows.head.tsCol))
    }
  }

  /** One traced pass over the sampled requests. Per request: the frame
    * scan, a fold of every function in [[FoldFns]] over the frame, the
    * LAST JOIN lookup and a pre-agg query.
    */
  def replay(in: LayerInput, pa: PreAggTable, tr: Tracer, counts: ReplayCounts): Unit = {
    val w = in.spec.windows.head
    val v: Row => java.lang.Double = r => num(r.getOrElse(in.valCol, null))
    in.requests.indices.foreach { i =>
      val req = in.requests(i)
      val key = String.valueOf(req(w.keyCol))
      val t = tsOf(req, w.tsCol)
      tr.span("request", i) {
        val (fr, scanned) = frame(in, w, req, tr, i)
        counts.scanned += scanned
        counts.frameRows += fr.length
        FoldFns.foreach(fn => tr.span(s"functions.fold.$fn", i)(foldWith(fn, fr, v, in.cateOf, in.condOf)))
        tr.span("storage.latest", i)(in.tables(in.lookupTable).latest(String.valueOf(req(in.lookupKeyCol)), t))
        tr.span("online.preagg_query", i) {
          pa.query(key, t - w.rangeMs, t, rawEdge(in.tables(in.spec.primary), key, in.valCol))
        }
        counts.buckets += pa.lastQueryBuckets
        counts.raw += pa.lastQueryRawRows
      }
      counts.requests += 1
    }
  }

  /** Self time of the engine's request path: the sampled requests served
    * by the engine, minus the same requests through [[mirror]], the
    * engine's own layer calls made from outside it (fastest of seven
    * alternating passes each). The mirror's own overhead is an offset
    * that stays the same between revisions of the engine, so compare the
    * figure between revisions rather than reading it as an absolute time;
    * it can be negative.
    */
  def selfTime(in: LayerInput, counts: ReplayCounts): Unit = {
    val served = in.requests.filter(r => try { in.engine.request(r); true } catch { case _: Exception => false })
    def pass(f: Row => Unit): Long = { val t0 = System.nanoTime(); served.foreach(f); System.nanoTime() - t0 }
    var engineNs = Long.MaxValue
    var mirrorNs = Long.MaxValue
    (1 to 7).foreach { i =>
      mirrorNs = math.min(mirrorNs, pass(r => mirror(in, r, i)))
      engineNs = math.min(engineNs, pass(r => in.engine.request(r)))
    }
    counts.selfNs = (engineNs - mirrorNs).toDouble
    counts.selfN = served.size
    counts.engineFailures = in.requests.size - served.size
  }

  private def timeNs(reps: Int)(body: => Unit): Double =
    Stats.median((1 to reps).map { _ => val s = System.nanoTime(); body; (System.nanoTime() - s).toDouble })

  /** Every per-layer metric, on the workload's own data. */
  def measure(in: LayerInput, spanFile: java.nio.file.Path, nproc: Int, gc0: Long): Map[String, Metric] = {
    val w = in.spec.windows.head
    val out = scala.collection.mutable.LinkedHashMap.empty[String, Metric]
    val rows = in.sampleRows
    val keyCol = w.keyCol
    val tsCol = w.tsCol

    // storage: put into a fresh table, in the workload's insert order
    val putNs = (1 to 3).map { _ =>
      val t = new OnlineTable(keyCol, tsCol)
      val s = System.nanoTime(); rows.foreach(t.put); (System.nanoTime() - s).toDouble / rows.size
    }
    out("storage.put_ns") = Metric.ofMedian(putNs, "ns", s"OnlineTable.put, ${rows.size} rows x3")

    // storage: codec on the workload's schema
    val codec = new RowCodec(in.schema.map(_._2))
    val values = rows.take(20000).map(r => in.schema.map { case (c, _) => r.getOrElse(c, null) })
    val encoded = values.map(codec.encode)
    val encNs = (1 to 3).map(_ => timeNs(1)(values.foreach(codec.encode)) / values.size)
    val decNs = (1 to 3).map(_ => timeNs(1)(encoded.foreach(codec.decode)) / values.size)
    out("storage.codec_encode_ns_per_row") = Metric.ofMedian(encNs, "ns", s"${in.schema.size} fields")
    out("storage.codec_decode_ns_per_row") = Metric.ofMedian(decNs, "ns", s"${in.schema.size} fields")
    out("storage.codec_bytes_per_row") =
      Metric.single(encoded.map(_.length.toDouble).sum / encoded.size, "B", s"${encoded.size} rows")

    // pre-agg: inserts into a fresh hierarchy; queries on the workload's own
    val fresh = new PreAggTable(PreAggLevels)
    val withVal = rows.filter(r => r.getOrElse(in.valCol, null) != null)
    val insNs = timeNs(1)(withVal.foreach(r =>
      fresh.insert(String.valueOf(r(keyCol)), tsOf(r, tsCol), num(r(in.valCol)).doubleValue))) / withVal.size
    out("online.preagg_insert_ns") = Metric.single(insNs, "ns", s"${withVal.size} rows, levels 1s/1min/1h")
    val pa = in.preAgg.values.headOption.getOrElse(fresh)
    out("online.preagg_buckets") = Metric.single(pa.bucketCount.toDouble, "count",
      if (in.preAgg.nonEmpty) "workload pre-agg table" else "pre-agg built over the sampled rows")
    def query(k: String, t: Long): Unit =
      pa.query(k, t - w.rangeMs, t, rawEdge(in.tables(in.spec.primary), k, in.valCol))
    out("online.preagg_query_hot_ns") = Metric.single(timeNs(201)(query(in.hot._1, in.hot._2)), "ns", s"key ${in.hot._1}")
    out("online.preagg_query_cold_ns") = Metric.single(timeNs(201)(query(in.cold._1, in.cold._2)), "ns", s"key ${in.cold._1}")

    // request replay: untraced warm-up, then the overhead pairs, then the recorded pass
    replay(in, pa, Tracer.Off, ReplayCounts())
    val overheads = (1 to 7).map { _ =>
      val off = timeNs(1)(replay(in, pa, Tracer.Off, ReplayCounts()))
      val on = timeNs(1)(replay(in, pa, new Tracer(true), ReplayCounts()))
      100.0 * (on - off) / off
    }
    val tr = new Tracer(true)
    val c = ReplayCounts()
    replay(in, pa, tr, c)
    selfTime(in, c)
    val tot = tr.totals
    def spanNs(n: String): Double = tot.get(n).map(_._2.toDouble).getOrElse(0.0)
    val n = c.requests.toDouble
    out("storage.scan_ns_per_row") = Metric.single(spanNs("storage.scan") / math.max(1L, c.scanned), "ns",
      s"${c.scanned} rows over ${c.requests} requests")
    out("storage.rows_scanned_per_req") = Metric.single(c.scanned / n, "count", s"${c.requests} requests")
    out("storage.latest_ns") = Metric.single(spanNs("storage.latest") / n, "ns", s"table ${in.lookupTable}")
    FoldFns.foreach { fn =>
      out(s"functions.fold_ns_per_row.$fn") = Metric.single(spanNs(s"functions.fold.$fn") / math.max(1L, c.frameRows),
        "ns", s"${c.frameRows} frame rows")
    }
    out("online.frame_rows_per_req") = Metric.single(c.frameRows / n, "count", s"${c.requests} requests")
    out("online.preagg_query_ns") = Metric.single(spanNs("online.preagg_query") / n, "ns", s"${c.requests} requests")
    out("online.preagg_buckets_per_req") = Metric.single(c.buckets / n, "count", "single-threaded replay")
    out("online.preagg_raw_rows_per_req") = Metric.single(c.raw / n, "count", "single-threaded replay")
    out("online.request_self_ns") = Metric.single(c.selfNs / math.max(1, c.selfN), "ns",
      s"engine request minus its scan, fold, pre-agg and lookup calls; ${c.selfN} requests, ${c.engineFailures} threw")
    tr.writeCsv(spanFile)

    // union: single-threaded KeyState, 1-worker engine, rebalances at nproc - 1 workers
    val stream = in.stream
    val stateNs = (1 to 3).map { _ =>
      val states = new java.util.HashMap[String, KeyState]()
      timeNs(1)(stream.foreach { t =>
        states.computeIfAbsent(t.key, _ => new KeyState).addAndQuery(t.ts, t.value, in.streamWindowMs)
      }) / stream.size
    }
    out("online.union_state_ns_per_tuple") = Metric.ofMedian(stateNs, "ns", s"${stream.size} tuples x3")
    val oneWorker = (1 to 3).map(_ => stream.size / (timeNs(1)(new SelfAdjustingUnion(1, in.streamWindowMs).run(stream)) / 1e9))
    out("online.union_1worker_tuples_per_s") = Metric.ofMedian(oneWorker, "1/s", s"${stream.size} tuples x3")
    val sa = new SelfAdjustingUnion(math.max(1, nproc - 1), in.streamWindowMs)
    sa.run(stream)
    out("online.union_rebalances") = Metric.single(sa.rebalances.toDouble, "count", s"${math.max(1, nproc - 1)} workers")

    out("jvm.gc_ms") = Metric.single((Jvm.gcMillis() - gc0).toDouble, "ms", "from the warm-up to the end of the traced run")
    out("trace.overhead_pct") = Metric.ofMedian(overheads, "%", "replay with spans vs without, median of 7 pairs")
    out.toMap
  }
}

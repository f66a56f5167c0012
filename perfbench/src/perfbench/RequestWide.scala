package perfbench

import scala.util.Random
import repro.core._
import repro.core.online.{OnlineTable, RequestEngine}
import repro.core.online.WindowUnionStream.StreamTuple
import repro.storage.FieldType

/** `request-wide`: the Table 3 shape at about 210 features. 100 double
  * columns with a few percent nulls, a category and a flag column, uniform
  * keys with about 50 stored rows inside each request's 10 s window, and
  * one LAST JOIN to a profile table. No pre-agg, no union: per-feature
  * dispatch and the AggCore fold do most of the work.
  */
final class RequestWide(seed: Long, nproc: Int) extends Workload {
  val name = "request-wide"
  private val NKeys = 2000
  private val RowsPerKey = 50
  private val NCols = 100
  private val NCats = 20
  private val NullShare = 0.03
  private val WindowMs = 10000L
  private val NRequests = 2048
  val openRate = 300.0
  private val clients = math.max(1, nproc - 1)

  private val colNames = Array.tabulate(NCols)(i => s"c$i")
  private val catNames = Array.tabulate(NCats)(i => s"g$i")
  private val keyNames = Array.tabulate(NKeys)(i => s"u$i")

  val spec: FeatureSpec = FeatureSpec(
    primary = "t",
    windows = Seq(WindowDef("w", "k", "ts", WindowMs)),
    features = colNames.toSeq.flatMap(c => Seq(
      Feature(s"sum_$c", FeatureFn.Sum(c), "w"),
      Feature(s"avg_$c", FeatureFn.Avg(c), "w"))) ++
      colNames.indices.filter(_ % 10 == 0).map(i => Feature(s"min_c$i", FeatureFn.Min(s"c$i"), "w")) ++ Seq(
      Feature("cnt", FeatureFn.Count, "w"),
      Feature("dcnt_cat", FeatureFn.DistinctCount("cat"), "w"),
      Feature("top3_cat", FeatureFn.TopNFreq("cat", 3), "w"),
      Feature("acw_c1", FeatureFn.AvgCateWhere("c1", "flag", "cat"), "w"),
      Feature("ew_c2", FeatureFn.EwAvg("c2", 0.5), "w"),
      Feature("dd_c3", FeatureFn.Drawdown("c3"), "w")),
    lastJoins = Seq(LastJoinDef("profile", "k", "pts", Seq("age", "city"), "p_")))

  // The benchmark's own copy of the generated rows, column-major (NaN is
  // null); the engine only ever sees maps built from it.
  private var ts: Array[Long] = _
  private var vals: Array[Array[Double]] = _
  private var cat: Array[Int] = _
  private var flag: Array[Boolean] = _
  private var profTs: Array[Array[Long]] = _
  private var profAge: Array[Array[Int]] = _
  private var requests: IndexedSeq[Map[String, Any]] = _
  private var tables: Map[String, OnlineTable] = _
  private var engine: RequestEngine = _

  private def value(rnd: Random): Any =
    if (rnd.nextDouble() < NullShare) null else 1.0 + rnd.nextDouble() * 99.0

  private def rowMap(i: Int): Map[String, Any] = {
    val b = Map.newBuilder[String, Any]
    b += "k" -> keyNames(i / RowsPerKey); b += "ts" -> ts(i)
    b += "cat" -> catNames(cat(i)); b += "flag" -> flag(i)
    var c = 0
    while (c < NCols) { val v = vals(c)(i); b += colNames(c) -> (if (v.isNaN) null else v); c += 1 }
    b.result()
  }

  def setup(): Unit = {
    tables = null; engine = null
    val rnd = new Random(seed)
    val n = NKeys * RowsPerKey
    ts = new Array[Long](n); cat = new Array[Int](n); flag = new Array[Boolean](n)
    vals = Array.fill(NCols)(new Array[Double](n))
    var base = 0L
    var i = 0
    while (i < n) {
      val j = i % RowsPerKey
      if (j == 0) base = 2L * rnd.nextInt(500)
      // even and strictly increasing within a key; requests use odd ts
      ts(i) = base + 200L * j + 2L * rnd.nextInt(50)
      cat(i) = rnd.nextInt(NCats); flag(i) = rnd.nextBoolean()
      var c = 0
      while (c < NCols) { vals(c)(i) = if (rnd.nextDouble() < NullShare) Double.NaN else 1.0 + rnd.nextDouble() * 99.0; c += 1 }
      i += 1
    }
    profTs = Array.tabulate(NKeys)(k => Array(ts(k * RowsPerKey) - 1000L, ts(k * RowsPerKey) + 4000L,
      ts(k * RowsPerKey) + 9900L + 2L * rnd.nextInt(100)))
    profAge = Array.fill(NKeys)(Array.fill(3)(18 + rnd.nextInt(60)))
    tables = Map("t" -> new OnlineTable("k", "ts"), "profile" -> new OnlineTable("k", "pts"))
    engine = new RequestEngine(spec, tables)
    i = 0
    while (i < n) { engine.insert("t", rowMap(i)); i += 1 }
    (0 until NKeys).foreach { k =>
      (0 until 3).foreach { j =>
        engine.insert("profile", Map("k" -> keyNames(k), "pts" -> profTs(k)(j),
          "age" -> profAge(k)(j), "city" -> s"city${(k + j) % 37}"))
      }
    }
    requests = (0 until NRequests).map { _ =>
      val k = rnd.nextInt(NKeys)
      val t = ts(k * RowsPerKey + RowsPerKey - 1) + 1 + 2 * rnd.nextInt(100)
      val b = Map.newBuilder[String, Any]
      b += "k" -> keyNames(k); b += "ts" -> t; b += "cat" -> catNames(rnd.nextInt(NCats)); b += "flag" -> rnd.nextBoolean()
      colNames.foreach(c => b += c -> value(rnd))
      b.result()
    }
  }

  def dropState(): Unit = { tables = null; engine = null }
  def rowsHeld: Long = NKeys.toLong * RowsPerKey + NKeys * 3L

  private var outcomes = new Outcomes
  private def serve(i: Int): Boolean = Workload.serve(outcomes)(engine.request(requests(i % NRequests)))

  def warmup(seconds: Double): Unit =
    Load.closed(clients, seconds)((t, i) => serve((t * 7919 + i.toInt) & Int.MaxValue))

  def measure(seconds: Double, out: Outcomes): Measured = {
    outcomes = out
    Workload.requestRounds(seconds, openRate, clients, clients, out, s"$clients clients")(serve)(
      (t, i) => serve((t * 7919 + i.toInt) & Int.MaxValue))
  }

  // ------------------------------------------------------------ reference

  private def nullable(d: Double): java.lang.Double = if (d.isNaN) null else d

  /** Independent fold over the benchmark's own rows for one request. */
  private def reference(req: Map[String, Any]): Map[String, Any] = {
    val k = req("k").asInstanceOf[String].substring(1).toInt
    val t = req("ts").asInstanceOf[Long]
    val idx = (k * RowsPerKey until (k + 1) * RowsPerKey).filter(i => ts(i) >= t - WindowMs && ts(i) <= t)
    def col(c: Int): Seq[java.lang.Double] =
      idx.map(i => nullable(vals(c)(i))) :+ req(colNames(c)).asInstanceOf[java.lang.Double]
    val cats: Seq[String] = idx.map(i => catNames(cat(i))) :+ req("cat").asInstanceOf[String]
    val flags: Seq[java.lang.Boolean] = idx.map(i => java.lang.Boolean.valueOf(flag(i))) :+
      req("flag").asInstanceOf[java.lang.Boolean]
    val out = Map.newBuilder[String, Any]
    colNames.indices.foreach { c =>
      val xs = col(c)
      out += s"sum_c$c" -> Ref.sum(xs)
      out += s"avg_c$c" -> Ref.avg(xs)
      if (c % 10 == 0) out += s"min_c$c" -> Ref.min(xs)
    }
    out += "cnt" -> (idx.size + 1).toLong
    out += "dcnt_cat" -> Ref.distinctCount(cats)
    out += "top3_cat" -> Ref.topN(cats, 3)
    out += "acw_c1" -> Ref.avgCateWhere(col(1), flags, cats)
    out += "ew_c2" -> Ref.ewAvg(col(2), 0.5)
    out += "dd_c3" -> Ref.drawdown(col(3))
    val prof = (0 until 3).filter(j => profTs(k)(j) <= t).lastOption
    out += "p_age" -> prof.map(j => profAge(k)(j)).orNull
    out += "p_city" -> prof.map(j => s"city${(k + j) % 37}").orNull
    out.result()
  }

  def check(out: Outcomes): Unit = {
    val rnd = new Random(seed ^ 0x5eed)
    (0 until 200).foreach { _ =>
      val req = requests(rnd.nextInt(NRequests))
      Check.request(engine, req, reference(req), out)
    }
  }

  def layerInput: LayerInput = {
    val rnd = new Random(seed + 99)
    val sampled = (0 until 300).map(_ => requests(rnd.nextInt(NRequests)))
    val sample = (0 until 30000).map(rowMap)
    val schema: IndexedSeq[(String, FieldType)] = IndexedSeq("k" -> FieldType.StringT, "ts" -> FieldType.TimestampT,
      "cat" -> FieldType.StringT, "flag" -> FieldType.BoolT) ++ colNames.map(_ -> FieldType.DoubleT)
    val stream = sample.sortBy(_("ts").asInstanceOf[Long]).map(r =>
      StreamTuple(0, r("k").asInstanceOf[String], r("ts").asInstanceOf[Long],
        Option(r("c0")).map(_.asInstanceOf[Double]).getOrElse(0.0)))
    val hot = requests.head
    LayerInput(spec, tables, engine, Map.empty, sampled, "profile", "k", "c1",
      r => r.getOrElse("cat", null).asInstanceOf[String],
      r => r.getOrElse("flag", null).asInstanceOf[java.lang.Boolean],
      sample, schema, stream, WindowMs,
      hot = (hot("k").asInstanceOf[String], hot("ts").asInstanceOf[Long]),
      cold = (requests(1)("k").asInstanceOf[String], requests(1)("ts").asInstanceOf[Long]))
  }

  def describe: Seq[(String, String)] = Seq(
    "rows" -> s"${NKeys * RowsPerKey} primary + ${NKeys * 3} profile",
    "features" -> spec.features.size.toString,
    "open_rate_per_s" -> openRate.toString,
    "client_threads" -> clients.toString)
}

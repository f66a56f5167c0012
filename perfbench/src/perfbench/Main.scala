package perfbench

import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable.ArrayBuffer

/** Benchmark entry point: one workload, one seed, one run.
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir> [--sha <id>]
  * }}}
  *
  * `--trace 0` measures the end-to-end metrics with nothing traced;
  * `--trace 1` runs the traced layer replay instead. Both check the
  * program's outputs. The last line of standard output is the result
  * object; the full record (environment, every metric with its samples
  * and spread, itemised failures) is written to `--out`.
  */
object Main {
  val Workloads: Seq[String] = Seq("request-wide", "request-longwindow", "union-stream", "offline-batch")
  private val SetupReps = 3

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.getOrElse("workload", "")
    if (!Workloads.contains(workload)) {
      System.err.println(s"unknown --workload '$workload'; expected one of ${Workloads.mkString(", ")}")
      sys.exit(2)
    }
    val seed = opts.getOrElse("seed", "1").toLong
    val seconds = opts.getOrElse("seconds", "20").toDouble
    val trace = opts.getOrElse("trace", "0") == "1"
    val outDir = Paths.get(opts.getOrElse("out", ".bench_build/results"))
    Files.createDirectories(outDir)
    val nproc = Runtime.getRuntime.availableProcessors
    val bootS = Jvm.sinceStartS()

    val w: Workload = workload match {
      case "request-wide"       => new RequestWide(seed, nproc)
      case "request-longwindow" => new LongWindow(seed, nproc)
      case "union-stream"       => new UnionStream(seed, nproc)
      case "offline-batch"      => new OfflineBatch(seed, nproc, outDir)
    }
    val code = try run(w, workload, seed, seconds, trace, outDir, nproc, bootS, opts.getOrElse("sha", "unknown"))
    finally w.close()
    sys.exit(code)
  }

  private def run(w: Workload, workload: String, seed: Long, seconds: Double, trace: Boolean,
                  outDir: Path, nproc: Int, bootS: Double, sha: String): Int = {
    // Set-up runs several times; the median is reported. The second
    // set-up's retained heap is measured by dropping it after a full GC.
    val setups = ArrayBuffer.empty[Double]
    var heapBytes = 0.0
    (1 to SetupReps).foreach { rep =>
      val t0 = System.nanoTime()
      w.setup()
      setups += (System.nanoTime() - t0) / 1e9
      if (rep == 2) {
        val alive = Jvm.usedAfterGc()
        w.dropState()
        val dropped = Jvm.usedAfterGc()
        heapBytes = (alive - dropped).toDouble / w.rowsHeld
      }
    }
    // JVM start is reported as a detail, not in setup_s: it is the same for
    // every revision and its run-to-run noise would swamp short set-ups.
    val setupS = w.startupS + Stats.median(setups)
    // Every run starts timing from a collected heap, not from whatever the
    // discarded set-ups left behind.
    Jvm.usedAfterGc()
    val gcAtWarmup = Jvm.gcMillis()
    w.warmup(math.min(3.0, seconds / 2))

    val out = new Outcomes
    val metrics = scala.collection.mutable.LinkedHashMap.empty[String, Metric]
    val details = ArrayBuffer.empty[(String, Metric)]
    val files = ArrayBuffer.empty[(String, String)]
    if (!trace) {
      val gc0 = Jvm.gcMillis()
      val m = w.measure(seconds, out)
      metrics("setup_s") = Metric(setupS, "s", setups.size, Stats.relIqr(setups),
        f"once-per-process ${w.startupS}%.3f s + median of ${setups.size} set-ups " +
          setups.map(s => f"$s%.3f").mkString("[", ", ", "]"))
      metrics("op_p50_ms") = m.opP50
      metrics("items_per_s") = m.itemsPerS
      metrics("heap_bytes_per_row") = Metric.single(w.storeBytesPerRow.getOrElse(heapBytes), "B",
        s"retained by the loaded state over ${w.rowsHeld} rows")
      details ++= m.details
      details += "jvm.gc_ms" -> Metric.single((Jvm.gcMillis() - gc0).toDouble, "ms", "during the timed phase")
      details += "jvm.start_s" -> Metric.single(bootS, "s", "JVM start to the first set-up")
    } else {
      val spans = outDir.resolve(s"$workload-seed$seed-spans.csv")
      Layers.measure(w.layerInput, spans, nproc, gcAtWarmup).toSeq.sortBy(_._1).foreach { case (k, v) => metrics(k) = v }
      details ++= w.traceExtras(seconds)
      files += "spans_file" -> spans.toString
    }
    w.check(out)

    val env = Seq(
      "workload" -> workload, "seed" -> seed.toString, "seconds" -> seconds.toString,
      "trace" -> (if (trace) "1" else "0"), "git_sha" -> sha, "nproc" -> nproc.toString,
      "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "spark" -> org.apache.spark.SPARK_VERSION,
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory / (1L << 20)).toString) ++ w.describe ++ files
    println(s"# perfbench $workload seed=$seed trace=${if (trace) 1 else 0}")
    env.foreach { case (k, v) => println(s"env $k = $v") }
    def line(k: String, m: Metric): String =
      f"metric $k%-38s ${m.value}%14.4f ${m.unit}%-6s n=${m.samples}%-7d iqr/median=${m.spread}%.3f  ${m.note}"
    metrics.foreach { case (k, m) => println(line(k, m)) }
    details.foreach { case (k, m) => println(line(k, m).replaceFirst("^metric", "detail")) }
    println(s"checks attempted=${out.attempted.get} failed=${out.failed} unexplained=${out.unexplained} " +
      f"failed_share=${out.failed.toDouble / math.max(1L, out.attempted.get)}%.6f")
    out.report.foreach(println)

    val correct = out.unexplained == 0
    def metricJson(m: Metric): String =
      Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit), "samples" -> m.samples.toString,
        "spread" -> Json.num(m.spread), "note" -> Json.str(m.note)))
    val record = Json.obj(Seq(
      "env" -> Json.obj(env.map { case (k, v) => k -> Json.str(v) }),
      "metrics" -> Json.obj(metrics.toSeq.map { case (k, m) => k -> metricJson(m) }),
      "details" -> Json.obj(details.toSeq.map { case (k, m) => k -> metricJson(m) }),
      "attempted" -> out.attempted.get.toString, "failed" -> out.failed.toString,
      "failures" -> out.report.map(Json.str).mkString("[", ", ", "]")))
    Files.write(outDir.resolve(s"$workload-seed$seed-trace${if (trace) 1 else 0}.json"), record.getBytes("UTF-8"))

    println(Json.obj(Seq(
      "correct" -> correct.toString,
      "attempted" -> math.max(1L, out.attempted.get).toString,
      "failed" -> out.failed.toString,
      "metrics" -> Json.obj(metrics.toSeq.map { case (k, m) =>
        k -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit)))
      }))))
    System.out.flush()
    0
  }
}

// sigrec_perfbench: one run of one workload of the repository benchmark.
//
//   sigrec_perfbench --workload scan_unique|scan_clones|lookup_mixed
//                    --seed N --seconds S --trace 0|1 --run-dir DIR
//                    [--spans-out FILE] [--tiny] [--corrupt-answer]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it records
// spans at the layer boundaries, replays the recovery layers one thread at a
// time, and prints the per-layer metrics. Either way the last line of
// standard output is one JSON object {correct, attempted, failed, metrics},
// and the exit code is 0 only when every correctness check passed.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

// A scan whose accuracy falls this far below the paper's ~98.7% means
// recovery is broken, not that the corpus is hard.
constexpr double kAccuracyFloorPct = 90.0;

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: sigrec_perfbench --workload scan_unique|scan_clones|lookup_mixed"
               " --seed N --seconds S --trace 0|1 --run-dir DIR [--spans-out FILE]"
               " [--tiny] [--corrupt-answer]\n",
               why);
  return 2;
}

struct Run {
  Options opts;
  Sizes sizes;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Run& run, std::string& error) {
  bool have_workload = false;
  unsigned hw = std::thread::hardware_concurrency();
  run.opts.jobs = hw == 0 ? 1 : hw;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--tiny") {
      run.opts.tiny = true;
    } else if (arg == "--corrupt-answer") {
      run.opts.corrupt_answer = true;
    } else {
      const char* v = value();
      if (v == nullptr) {
        error = arg + " needs a value";
        return false;
      }
      if (arg == "--workload") {
        std::optional<Workload> w = parse_workload(v);
        if (!w.has_value()) {
          error = std::string("unknown workload ") + v;
          return false;
        }
        run.opts.workload = *w;
        have_workload = true;
      } else if (arg == "--seed") {
        run.opts.seed = std::strtoull(v, nullptr, 10);
      } else if (arg == "--seconds") {
        run.opts.seconds = std::strtod(v, nullptr);
      } else if (arg == "--trace") {
        run.opts.trace = std::strcmp(v, "1") == 0;
      } else if (arg == "--run-dir") {
        run.opts.run_dir = v;
      } else if (arg == "--spans-out") {
        run.spans_out = v;
      } else {
        error = "unknown argument " + arg;
        return false;
      }
    }
  }
  if (!have_workload) error = "--workload is required";
  else if (run.opts.run_dir.empty()) error = "--run-dir is required";
  else if (!(run.opts.seconds > 0)) error = "--seconds must be positive";
  return error.empty();
}

double safe(double v) { return std::isfinite(v) ? v : 0.0; }

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

int main(int argc, char** argv) {
  Run run;
  std::string error;
  if (!parse_args(argc, argv, run, error)) return usage(error.c_str());
  const Options& opts = run.opts;
  run.sizes = sizes_for(opts);
  const Sizes& sizes = run.sizes;
  const bool scan_workload = opts.workload != Workload::LookupMixed;
  const char* names[] = {"scan_unique", "scan_clones", "lookup_mixed"};
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d jobs=%u%s\n",
              names[static_cast<int>(opts.workload)], static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0, opts.jobs, opts.tiny ? " (tiny)" : "");
  std::fflush(stdout);

  fs::remove_all(opts.run_dir);
  fs::create_directories(opts.run_dir);
  const std::string inputs_dir = opts.run_dir + "/inputs";
  const std::string unsharded_dir = opts.run_dir + "/unsharded";
  SpanLog log(opts.trace);

  Inputs inputs;
  Expected expected;
  std::vector<ScanPass> passes;
  std::vector<double> setup_times;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool gates_ok = true;

  auto scan = [&](bool traced) {
    std::string dir = opts.run_dir + "/pass" + std::to_string(passes.size() % 2);
    if (!passes.empty()) passes.back().batch.contracts.clear();  // keep one pass's reports
    passes.push_back(run_scan_pass(inputs, opts, dir, log, traced, expected));
    attempted += passes.back().contracts;
    failed += passes.back().failed;
    return dir;
  };

  // Set-up, repeated; setup_s is the median. lookup_mixed's set-up also
  // scans the corpus once, which builds the index it will serve.
  for (int r = 0; r < sizes.setup_repeats; ++r) {
    inputs = Inputs();
    double t0 = wall_now();
    inputs = build_inputs(opts, sizes, inputs_dir);
    if (!scan_workload) {
      scan(false);
      passes.back().warmup = true;
    }
    setup_times.push_back(wall_now() - t0);
  }

  // A scan workload's first scan warms the page cache and the allocator; it
  // is checked but not timed.
  if (passes.empty()) {
    scan(false);
    passes.back().warmup = true;
  }

  // Measured phase: cycles of repeated scans, then lookups over the last
  // scan's index, so both halves sample the host across the whole run. The
  // workload decides the split.
  double measure_start = wall_now();
  double scan_share = scan_workload ? 0.6 : 0.3;
  int cycles = opts.tiny ? 1 : 3;
  double cycle_s = opts.seconds / cycles;
  std::size_t measured_passes = 0;
  LookupPhase lookup;
  std::vector<std::size_t> batch_sizes;
  for (std::size_t spec : inputs.spec_of) batch_sizes.push_back(inputs.corpus.specs[spec].functions.size());
  for (int c = 0; c < cycles; ++c) {
    double cycle_start = wall_now();
    std::string served_dir;
    do {
      served_dir = scan(opts.trace && measured_passes++ % 2 == 1);
    } while (wall_now() < cycle_start + scan_share * cycle_s ||
             (opts.trace && measured_passes < 2));

    // The second reload generation: the same records with 0 shard bits,
    // each selector's answer checked like the first's.
    long mismatches = build_unsharded_index(passes.back(), unsharded_dir, expected);
    attempted += expected.rows.size();
    if (mismatches != 0) {
      failed += mismatches < 0 ? expected.rows.size() : static_cast<std::uint64_t>(mismatches);
    }
    double lookup_s = std::max(cycle_start + cycle_s - wall_now(), 0.5 * (1 - scan_share) * cycle_s);
    run_lookup_phase(opts, sizes, served_dir, unsharded_dir, expected, batch_sizes, lookup_s,
                     c == cycles - 1, log, lookup);
  }
  attempted += lookup.attempted;
  failed += lookup.failed;
  double measured_s = wall_now() - measure_start;

  // --- end-to-end figures ----------------------------------------------------
  std::vector<double> rate, cpu_per_k, traced_wall, untraced_wall;
  std::size_t scored = 0, correct_fns = 0;
  for (const ScanPass& p : passes) {
    scored += p.functions_scored;
    correct_fns += p.functions_correct;
    if (p.warmup) continue;
    (p.traced ? traced_wall : untraced_wall).push_back(p.wall_s);
    if (p.traced) continue;
    rate.push_back(ratio(static_cast<double>(p.contracts), p.wall_s));
    cpu_per_k.push_back(1e3 * ratio(p.cpu_s, static_cast<double>(p.contracts)));
  }
  double accuracy_pct = 100.0 * ratio(static_cast<double>(correct_fns), static_cast<double>(scored));
  if (accuracy_pct < kAccuracyFloorPct) gates_ok = false;
  if (lookup.direct_mismatches != 0 || lookup.odd_generations == 0 || lookup.even_generations == 0) {
    gates_ok = false;
  }
  bool correct = gates_ok && failed == 0;

  std::vector<Metric> metrics;
  auto add = [&](const char* name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  };
  if (!opts.trace) {
    add("setup_s", median(setup_times), "s");
    add("contracts_per_s", median(rate), "contracts/s");
    add("cpu_s_per_kcontract", median(cpu_per_k), "s");
    add("peak_rss_mib", peak_rss_mib(), "MiB");
    add("accuracy_pct", accuracy_pct, "%");
  } else {
    // --- per-layer figures, from the traced run ------------------------------
    std::vector<sigrec::evm::Bytecode> distinct;
    std::vector<std::size_t> distinct_of(inputs.codes.size());
    {
      std::map<std::array<std::uint8_t, 32>, std::size_t> seen;
      for (std::size_t i = 0; i < inputs.codes.size(); ++i) {
        auto [it, fresh] = seen.emplace(inputs.codes[i].code_hash(), distinct.size());
        if (fresh) distinct.push_back(inputs.codes[i]);
        distinct_of[i] = it->second;
      }
    }
    LayerReplay replay = replay_layers(distinct, log);

    std::vector<double> next_s, ingest_items, ingest_errors, fetch_s, fetch_requests,
        fetch_retries, fetch_bytes, shard_write, shard_records, compact_s, compact_bytes,
        bytes_per_selector, engine_wall, engine_cpu, efficiency, hit_rate, waits, hits_per_dup;
    std::size_t distinct_inputs = 0;
    {
      std::vector<char> used(distinct.size(), 0);
      for (std::size_t spec : inputs.spec_of) {
        std::size_t d = distinct_of[spec];
        distinct_inputs += used[d] ? 0 : 1;
        used[d] = 1;
      }
    }
    double repeated = static_cast<double>(inputs.contracts() - distinct_inputs);
    for (const ScanPass& p : passes) {
      double n = static_cast<double>(p.contracts);
      if (p.warmup) continue;
      if (p.traced) {
        next_s.push_back(p.ingest_next_s);
        ingest_items.push_back(static_cast<double>(p.ingest_items));
        ingest_errors.push_back(static_cast<double>(p.ingest_errors));
        continue;
      }
      sigrec::core::SourceStats fetch = p.fetch.value_or(sigrec::core::SourceStats{});
      fetch_s.push_back(fetch.fetch_seconds);
      fetch_requests.push_back(static_cast<double>(fetch.requests));
      fetch_retries.push_back(static_cast<double>(fetch.retries));
      fetch_bytes.push_back(ratio(static_cast<double>(fetch.bytes), n));
      shard_write.push_back(p.shard_write_s);
      shard_records.push_back(static_cast<double>(p.shard_records));
      compact_s.push_back(p.compact_s);
      compact_bytes.push_back(static_cast<double>(p.compact.index_bytes));
      bytes_per_selector.push_back(
          ratio(static_cast<double>(p.compact.index_bytes), static_cast<double>(p.compact.selectors)));
      engine_wall.push_back(p.recover_wall_s);
      engine_cpu.push_back(p.recover_cpu_s);
      efficiency.push_back(ratio(p.recover_cpu_s, p.recover_wall_s * opts.jobs));
      const auto& cache = p.batch.cache;
      double lookups = static_cast<double>(cache.contract_hits + cache.contract_misses);
      hit_rate.push_back(ratio(static_cast<double>(cache.contract_hits), lookups));
      waits.push_back(static_cast<double>(cache.contract_inflight_waits));
      hits_per_dup.push_back(ratio(static_cast<double>(cache.contract_hits), repeated));
    }
    const ScanPass& last = passes.back();

    std::size_t fanout = 0, dispatched = 0;
    for (std::size_t spec : inputs.spec_of) {
      std::size_t fns = replay.functions_per_code[distinct_of[spec]];
      dispatched += fns;
      fanout += fns >= 4 ? 1 : 0;
    }
    double contracts = static_cast<double>(inputs.contracts());

    add("ingest.next_s", median(next_s), "s");
    add("ingest.items", median(ingest_items), "count");
    add("ingest.errors", median(ingest_errors), "count");
    add("fetch.s", median(fetch_s), "s");
    add("fetch.requests", median(fetch_requests), "count");
    add("fetch.retries", median(fetch_retries), "count");
    add("fetch.bytes_per_contract", median(fetch_bytes), "bytes");
    add("evm.disasm_s", replay.disasm_s, "s");
    add("evm.disasm_calls", static_cast<double>(replay.disasm_calls), "count");
    add("dispatch.extract_s", replay.extract_s, "s");
    add("dispatch.functions", static_cast<double>(replay.functions), "count");
    add("symexec.run_s", replay.symexec_s, "s");
    add("symexec.runs", static_cast<double>(replay.runs), "count");
    add("symexec.steps", static_cast<double>(replay.steps), "count");
    add("symexec.steps_per_s", ratio(static_cast<double>(replay.steps), replay.symexec_s), "1/s");
    add("symexec.paths", static_cast<double>(replay.paths), "count");
    add("symexec.incomplete_runs", static_cast<double>(replay.incomplete_runs), "count");
    add("tase.infer_s", replay.tase_s, "s");
    add("tase.calls", static_cast<double>(replay.tase_calls), "count");
    add("batch.wall_s", median(engine_wall), "s");
    add("batch.cpu_s", median(engine_cpu), "s");
    add("batch.parallel_efficiency", median(efficiency), "share");
    add("batch.layer_cover", ratio(replay.cpu_s(), median(engine_cpu)), "share");
    add("batch.retries", static_cast<double>(last.batch.health.retries), "count");
    add("batch.salvaged", static_cast<double>(last.batch.health.salvaged), "count");
    add("cache.contract_hit_rate", median(hit_rate), "share");
    add("cache.inflight_waits", median(waits), "count");
    add("cache.hits_per_dup", median(hits_per_dup), "share");
    add("shard.write_s", median(shard_write), "s");
    add("shard.records", median(shard_records), "count");
    add("compact.s", median(compact_s), "s");
    add("compact.index_bytes", median(compact_bytes), "bytes");
    add("compact.bytes_per_selector", median(bytes_per_selector), "bytes");
    add("lookup_p50_ms", median(lookup.p50_windows), "ms");
    add("lookup_p99_ms", median(lookup.p99_windows), "ms");
    add("lookup_max_rps", lookup.max_rps, "req/s");
    add("lookup_capacity_rps", median(lookup.capacity_windows), "req/s");
    add("lookup_cpu_us_per_req",
        1e6 * ratio(lookup.closed_cpu_s, static_cast<double>(lookup.closed_answered)), "us");
    add("index.open_ms", lookup.index_open_ms, "ms");
    add("index.hit_ns", lookup.hit_ns, "ns");
    add("index.miss_ns", lookup.miss_ns, "ns");
    add("service.reload_ms", median(lookup.reload_ms), "ms");
    add("service.reloads", static_cast<double>(lookup.server_reloads), "count");
    add("service.reload_failures", static_cast<double>(lookup.server_reload_failures), "count");
    add("http.connect_us", 1e6 * ratio(lookup.connect_s, static_cast<double>(lookup.connections)), "us");
    add("http.connections_per_request",
                ratio(static_cast<double>(lookup.connections), static_cast<double>(lookup.requests)), "share");
    add("http.server_requests", static_cast<double>(lookup.server_requests), "count");
    add("http.bad_requests", static_cast<double>(lookup.bad_requests), "count");
    add("http.generator_lag_ms", percentile(lookup.lag_ms, 0.99), "ms");
    add("input.dup_share", ratio(repeated, contracts), "share");
    add("input.fanout_share", ratio(static_cast<double>(fanout), contracts), "share");
    add("input.miss_share", lookup.miss_share, "share");
    add("input.functions_per_contract", ratio(static_cast<double>(dispatched), contracts), "count");
    add("trace.scan_overhead_pct", 100.0 * (ratio(median(traced_wall), median(untraced_wall)) - 1.0), "%");
    add("trace.lookup_overhead_pct",
                100.0 * (ratio(median(lookup.traced_p50_ms), median(lookup.untraced_p50_ms)) - 1.0), "%");

    std::printf("spans: %zu recorded; per-layer totals (count, total s, self s):\n", log.size());
    for (const SpanTotals& t : log.totals()) {
      std::printf("  %-24s %8llu %12.6f %12.6f\n", t.name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
    }
    if (!run.spans_out.empty() && !log.write_tsv(run.spans_out)) {
      std::fprintf(stderr, "warning: cannot write spans to %s\n", run.spans_out.c_str());
    }
  }

  // Human-readable lines first, then the one-line JSON result.
  double error_rate = ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::printf("measured %.2fs: %zu scan passes (%zu contracts each), %llu lookup requests,"
              " %zu reloads, base-rate samples %zu, highest passing offer %.0f req/s\n",
              measured_s, passes.size(), inputs.contracts(),
              static_cast<unsigned long long>(lookup.requests), lookup.reload_ms.size(),
              lookup.base_samples, lookup.highest_offer);
  std::printf("error_rate %.6f share (%llu failed of %llu attempted); gates %s\n", error_rate,
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted),
              gates_ok ? "ok" : "FAILED");
  std::printf("lookup: windowed p50 %.3f ms, p99 %.3f ms; max rps with p99 <= 1 ms %.0f;"
              " capacity %.0f req/s at %.1f us CPU per request; generator lag p99 %.3f ms\n",
              median(lookup.p50_windows), median(lookup.p99_windows), lookup.max_rps,
              median(lookup.capacity_windows),
              1e6 * ratio(lookup.closed_cpu_s, static_cast<double>(lookup.closed_answered)),
              percentile(lookup.lag_ms, 0.99));
  for (const Metric& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), safe(m.value), m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const Metric& m : metrics) {
    std::snprintf(number, sizeof number, "%.17g", safe(m.value));
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + number + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);

  inputs = Inputs();  // stops the mock node before the files go
  fs::remove_all(opts.run_dir);
  return correct ? 0 : 3;
}

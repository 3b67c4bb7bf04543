#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "corpus/scoring.hpp"
#include "http_client.hpp"
#include "layers.hpp"
#include "mock_rpc_server.hpp"
#include "sigrec/rpc.hpp"
#include "sigrec/shard.hpp"

namespace perfbench {

namespace core = sigrec::core;
namespace fs = std::filesystem;

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "scan_unique") return Workload::ScanUnique;
  if (name == "scan_clones") return Workload::ScanClones;
  if (name == "lookup_mixed") return Workload::LookupMixed;
  return std::nullopt;
}

Sizes sizes_for(const Options& opts) {
  Sizes s;
  if (opts.tiny) {
    s.unique_contracts = 48;
    s.clone_uniques = 6;
    s.clone_copies = 4;
    s.setup_repeats = 1;
    s.base_rate = 1000;
    s.reload_interval_s = 0.05;
    return s;
  }
  s.unique_contracts = 2000;
  s.clone_uniques = 64;
  s.clone_copies = 48;
  s.setup_repeats = 3;
  s.base_rate = 2000;
  s.reload_interval_s = 0.1;
  return s;
}

// --- inputs ------------------------------------------------------------------

Inputs::Inputs() = default;
Inputs::~Inputs() = default;
Inputs::Inputs(Inputs&&) noexcept = default;
Inputs& Inputs::operator=(Inputs&&) noexcept = default;

std::unique_ptr<core::ContractSource> Inputs::make_source() const {
  if (node != nullptr) return std::make_unique<core::RpcSource>(node->url(), addresses);
  return std::make_unique<core::FileListSource>(files);
}

namespace {

// Heavy contracts in bench_throughput's shape: 8 functions each, with
// dynamic and nested-array parameters, so one distinct code is expensive.
sigrec::corpus::Corpus heavy_corpus(std::size_t uniques, std::uint64_t seed) {
  static const std::vector<std::vector<std::string>> kParamSets = {
      {"uint256[]", "bytes", "uint8[3][]", "address"},
      {"bytes", "uint256[]", "bool"},
      {"uint8[3][]", "bytes32", "uint256[]"},
      {"address", "uint256[]", "bytes", "uint256"},
      {"uint256[]", "uint256[]", "address"},
      {"bytes", "uint8[3][]", "uint256"},
  };
  std::mt19937_64 rng(seed);
  sigrec::corpus::Corpus ds;
  std::string tag = std::to_string(seed);
  for (std::size_t i = 0; i < uniques; ++i) {
    std::vector<sigrec::compiler::FunctionSpec> fns;
    for (std::size_t j = 0; j < 8; ++j) {
      std::string name = "fn_" + tag + "_" + std::to_string(i) + "_" + std::to_string(j);
      fns.push_back(sigrec::compiler::make_function(name, kParamSets[rng() % kParamSets.size()]));
    }
    ds.specs.push_back(
        sigrec::compiler::make_contract("Heavy" + tag + "_" + std::to_string(i), {}, fns));
  }
  return ds;
}

std::string address_of(std::uint64_t seed, std::size_t k) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + k);
  char buf[43];
  std::snprintf(buf, sizeof buf, "0x%016llx%016llx%08x",
                static_cast<unsigned long long>(rng()), static_cast<unsigned long long>(rng()),
                static_cast<unsigned>(rng() & 0xffffffffu));
  return buf;
}

}  // namespace

Inputs build_inputs(const Options& opts, const Sizes& sizes, const std::string& dir) {
  Inputs in;
  fs::remove_all(dir);
  fs::create_directories(dir);
  if (opts.workload == Workload::ScanClones) {
    in.corpus = heavy_corpus(sizes.clone_uniques, opts.seed);
    in.codes = sigrec::corpus::compile_corpus(in.corpus);
    // Every distinct code at clone_copies addresses, in a seeded shuffle so
    // duplicates interleave the way deployments do on chain.
    for (std::size_t u = 0; u < in.codes.size(); ++u) {
      for (std::size_t c = 0; c < sizes.clone_copies; ++c) in.spec_of.push_back(u);
    }
    std::mt19937_64 rng(opts.seed ^ 0xc10e5ull);
    std::shuffle(in.spec_of.begin(), in.spec_of.end(), rng);
    std::map<std::string, std::string> code_by_address;
    for (std::size_t k = 0; k < in.spec_of.size(); ++k) {
      in.addresses.push_back(address_of(opts.seed, k));
      code_by_address[in.addresses.back()] = in.codes[in.spec_of[k]].to_hex();
    }
    in.node = std::make_unique<sigrec::test::MockRpcServer>(std::move(code_by_address));
    return in;
  }
  in.corpus = sigrec::corpus::make_open_source_corpus(sizes.unique_contracts, opts.seed);
  in.codes = sigrec::corpus::compile_corpus(in.corpus);
  for (std::size_t i = 0; i < in.codes.size(); ++i) {
    std::string path = dir + "/c" + std::to_string(i) + ".hex";
    std::ofstream(path) << in.codes[i].to_hex() << '\n';
    in.files.push_back(path);
    in.spec_of.push_back(i);
  }
  return in;
}

// --- scan --------------------------------------------------------------------

namespace {

// Sorted, newline-joined rows of one selector's candidates in the index.
std::string index_rows(const core::LookupIndex& index, std::uint32_t selector) {
  core::Candidates candidates = index.lookup(selector);
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    rows.push_back(core::render_candidate_row(selector, candidates[i]));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& row : rows) {
    if (!out.empty()) out += '\n';
    out += row;
  }
  return out;
}

Expected expected_from_merge(const std::string& merged, std::vector<std::size_t>& per_ordinal) {
  std::map<std::uint32_t, std::set<std::string>> grouped;
  Expected exp;
  std::size_t pos = 0;
  while (pos < merged.size()) {
    std::size_t eol = merged.find('\n', pos);
    if (eol == std::string::npos) eol = merged.size();
    std::string_view line(merged.data() + pos, eol - pos);
    pos = eol + 1;
    std::size_t tab = line.find('\t');
    if (tab == std::string_view::npos) continue;
    std::size_t ordinal = std::strtoull(std::string(line.substr(0, tab)).c_str(), nullptr, 10);
    std::string_view row = line.substr(tab + 1);
    std::optional<std::uint32_t> selector = core::parse_selector(row.substr(0, 10));
    if (!selector.has_value()) continue;
    grouped[*selector].insert(std::string(row));
    exp.owners[*selector].push_back(ordinal);
    if (ordinal < per_ordinal.size()) per_ordinal[ordinal] += 1;
  }
  for (auto& [selector, rows] : grouped) {
    std::string joined;
    for (const std::string& row : rows) {
      if (!joined.empty()) joined += '\n';
      joined += row;
    }
    exp.rows[selector] = std::move(joined);
  }
  return exp;
}

bool contract_failed(const core::ContractReport& report) {
  return report.interrupted || report.ingest_failed ||
         report.status == core::RecoveryStatus::InternalError ||
         report.status == core::RecoveryStatus::MalformedBytecode;
}

}  // namespace

ScanPass run_scan_pass(const Inputs& inputs, const Options& opts, const std::string& dir,
                       SpanLog& log, bool traced, Expected& expected) {
  ScanPass pass;
  pass.traced = traced;
  pass.contracts = inputs.contracts();
  fs::remove_all(dir);
  SpanLog off(false);
  SpanLog& spans = traced ? log : off;

  double t0 = wall_now();
  double c0 = process_cpu();
  {
    ScopedSpan pass_span(spans, "scan.pass");
    std::unique_ptr<core::ContractSource> real = inputs.make_source();
    core::ShardedSink sink(dir, 4);
    core::BatchOptions batch_opts;
    batch_opts.jobs = opts.jobs;
    batch_opts.sink = &sink;
    {
      ScopedSpan span(spans, "recover_stream", pass_span.handle());
      if (traced) {
        TimingSource timed(*real, spans, span.handle());
        pass.batch = core::recover_stream(timed, batch_opts);
        pass.ingest_next_s = timed.next_seconds();
        pass.ingest_items = timed.items();
        pass.ingest_errors = timed.errors();
      } else {
        pass.batch = core::recover_stream(*real, batch_opts);
      }
    }
    pass.recover_wall_s = wall_now() - t0;
    pass.recover_cpu_s = process_cpu() - c0;
    pass.fetch = real->stats();
    pass.shard_write_s = sink.write_seconds();
    pass.shard_records = sink.records_written();

    double k0 = wall_now();
    std::string error;
    bool compacted;
    {
      ScopedSpan span(spans, "compact_shards", pass_span.handle());
      compacted = core::compact_shards(dir, 4, &pass.compact, &error);
    }
    pass.compact_s = wall_now() - k0;
    if (!compacted) {
      std::fprintf(stderr, "compact_shards failed: %s\n", error.c_str());
      pass.failed = pass.contracts;
    }
  }
  pass.wall_s = wall_now() - t0;
  pass.cpu_s = process_cpu() - c0;
  if (pass.failed != 0) return pass;

  // Correctness, outside the timed interval. A contract fails on an engine
  // error, when its record count in the merged shards differs from its
  // report, or when the index answer for one of its selectors differs from
  // the merge_shards rows.
  std::vector<char> bad(pass.contracts, 0);
  std::vector<std::size_t> merged_per_ordinal(pass.contracts, 0);
  expected = expected_from_merge(core::merge_shards(core::list_shard_files(dir)), merged_per_ordinal);
  if (opts.corrupt_answer && !expected.rows.empty()) expected.rows.begin()->second += "\tcorrupted";
  if (pass.batch.contracts.size() != pass.contracts) {
    pass.failed = pass.contracts;
    return pass;
  }
  for (const core::ContractReport& report : pass.batch.contracts) {
    if (report.ordinal >= pass.contracts) continue;
    if (contract_failed(report) || merged_per_ordinal[report.ordinal] != report.functions.size()) {
      std::string status(sigrec::symexec::status_name(report.status));
      std::fprintf(stderr, "contract %zu failed: status %s, %zu of %zu records merged%s%s\n",
                   report.ordinal, status.c_str(),
                   merged_per_ordinal[report.ordinal], report.functions.size(),
                   report.error.empty() ? "" : ": ", report.error.c_str());
      bad[report.ordinal] = 1;
    }
    // Accuracy against the generator's spec, the paper's criterion.
    sigrec::corpus::RecoveredMap recovered;
    for (const core::RecoveredFunction& fn : report.functions) recovered[fn.selector] = fn.parameters;
    sigrec::corpus::Score score =
        sigrec::corpus::score_contract(inputs.corpus.specs[inputs.spec_of[report.ordinal]], recovered);
    pass.functions_scored += score.total;
    pass.functions_correct += score.correct;
  }
  std::string error;
  std::shared_ptr<const core::LookupIndex> index = core::LookupIndex::open(dir, &error);
  for (const auto& [selector, rows] : expected.rows) {
    if (index != nullptr && index_rows(*index, selector) == rows) continue;
    for (std::size_t ordinal : expected.owners[selector]) {
      if (ordinal < bad.size()) bad[ordinal] = 1;
    }
  }
  pass.failed = static_cast<std::size_t>(std::count(bad.begin(), bad.end(), 1));
  if (pass.failed != 0 || pass.compact.load.skipped() != 0) {
    std::fprintf(stderr, "scan pass: %zu contracts failed; shard load: %s\n", pass.failed,
                 pass.compact.load.to_string().c_str());
  }
  return pass;
}

long build_unsharded_index(const ScanPass& pass, const std::string& dir, const Expected& expected) {
  fs::remove_all(dir);
  {
    core::ShardedSink sink(dir, 0);
    if (!sink.ok()) return -1;
    for (const core::ContractReport& report : pass.batch.contracts) sink.write(report);
    if (!sink.flush()) return -1;
  }
  std::string error;
  if (!core::compact_shards(dir, 0, nullptr, &error)) return -1;
  std::shared_ptr<const core::LookupIndex> index = core::LookupIndex::open(dir, &error);
  if (index == nullptr) return -1;
  long mismatches = 0;
  for (const auto& [selector, rows] : expected.rows) {
    if (index_rows(*index, selector) != rows) ++mismatches;
  }
  return mismatches;
}

// --- lookup ------------------------------------------------------------------

namespace {

struct Request {
  std::string body;
  std::vector<std::uint32_t> selectors;
};

std::string selector_hex(std::uint32_t selector) {
  char hex[16];
  std::snprintf(hex, sizeof hex, "0x%08x", selector);
  return hex;
}

// Checks one /lookup reply against the expected rows; returns the
// generation it was served from, or nullopt when any answer differs.
std::optional<std::uint64_t> check_reply(const std::string& body, const Request& request,
                                         const Expected& expected) {
  std::optional<core::JsonValue> doc = core::parse_json(body);
  if (!doc.has_value() || doc->kind != core::JsonValue::Kind::Object) return std::nullopt;
  const core::JsonValue* generation = doc->find("generation");
  const core::JsonValue* results = doc->find("results");
  if (generation == nullptr || generation->kind != core::JsonValue::Kind::Number ||
      results == nullptr || results->kind != core::JsonValue::Kind::Array ||
      results->array.size() != request.selectors.size()) {
    return std::nullopt;
  }
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < request.selectors.size(); ++i) {
    const core::JsonValue& result = results->array[i];
    const core::JsonValue* selector = result.find("selector");
    const core::JsonValue* candidates = result.find("candidates");
    if (selector == nullptr || core::parse_selector(selector->string) != request.selectors[i] ||
        candidates == nullptr || candidates->kind != core::JsonValue::Kind::Array) {
      return std::nullopt;
    }
    rows.clear();
    for (const core::JsonValue& c : candidates->array) {
      const core::JsonValue* signature = c.find("signature");
      const core::JsonValue* dialect = c.find("dialect");
      const core::JsonValue* status = c.find("status");
      const core::JsonValue* partial = c.find("partial");
      if (signature == nullptr || dialect == nullptr || status == nullptr || partial == nullptr) {
        return std::nullopt;
      }
      std::string row = selector->string;
      row += '\t';
      row += signature->string;
      row += '\t';
      row += dialect->string;
      row += '\t';
      row += status->string;
      if (partial->boolean) row += "\tpartial";
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    std::string joined;
    for (const std::string& row : rows) {
      if (!joined.empty()) joined += '\n';
      joined += row;
    }
    auto it = expected.rows.find(request.selectors[i]);
    if (joined != (it == expected.rows.end() ? std::string() : it->second)) return std::nullopt;
  }
  return static_cast<std::uint64_t>(generation->number);
}

// Shared state of the lookup clients across segments.
struct Generator {
  const std::vector<Request>* plan = nullptr;
  const Expected* expected = nullptr;
  std::vector<std::unique_ptr<HttpClient>> clients;
  SpanLog* log = nullptr;
  std::atomic<std::uint64_t> odd_generations{0};
  std::atomic<std::uint64_t> even_generations{0};
  std::uint64_t next_request = 0;  // request numbers continue across segments
  std::atomic<int> reported_failures{0};

  // Sends request `id` of the plan on `client` and checks the answer.
  bool exchange(HttpClient& client, std::uint64_t id, SpanLog& spans, std::int64_t parent) {
    const Request& request = (*plan)[id % plan->size()];
    HttpReply reply;
    std::string error;
    bool sent;
    {
      ScopedSpan span(spans, "http.exchange", parent, id);
      sent = client.post("/lookup", request.body, reply, error);
    }
    std::optional<std::uint64_t> generation;
    if (sent && reply.status == 200) generation = check_reply(reply.body, request, *expected);
    if (!generation.has_value()) {
      if (reported_failures.fetch_add(1) < 5) {
        std::string why = !sent                  ? error
                          : reply.status != 200 ? "HTTP " + std::to_string(reply.status)
                                                : "answer differs from merge_shards";
        std::fprintf(stderr, "lookup request %llu failed: %s\n",
                     static_cast<unsigned long long>(id), why.c_str());
      }
      return false;
    }
    (*generation % 2 == 1 ? odd_generations : even_generations)
        .fetch_add(1, std::memory_order_relaxed);
    return true;
  }
};

struct Segment {
  std::vector<double> latency_ms;  // indexed by request, in due order
  std::vector<double> lag_ms;
  std::vector<char> ok;
  double elapsed_s = 0;  // first due time to last completion

  [[nodiscard]] std::uint64_t failed() const {
    return static_cast<std::uint64_t>(std::count(ok.begin(), ok.end(), 0));
  }
};

// The q-quantile of each run of `per_window` consecutive requests, so one
// host hiccup spoils one window instead of the whole segment's tail.
std::vector<double> window_quantiles(const std::vector<double>& samples, double q,
                                     std::size_t per_window) {
  std::vector<double> out;
  for (std::size_t begin = 0; begin + per_window <= samples.size(); begin += per_window) {
    out.push_back(percentile({samples.begin() + static_cast<std::ptrdiff_t>(begin),
                              samples.begin() + static_cast<std::ptrdiff_t>(begin + per_window)},
                             q));
  }
  if (out.empty()) out.push_back(percentile(samples, q));
  return out;
}

// Open loop: request i is due at start + i / rate whatever happened before
// it; the client threads take due requests in order. Latency runs from the
// due time, so a stalled server also charges the requests queued behind it.
Segment run_segment(Generator& gen, double rate, double duration, bool traced) {
  std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(rate * duration)));
  std::size_t threads = gen.clients.size();
  Segment seg;
  seg.latency_ms.assign(n, 0);
  seg.lag_ms.assign(n, 0);
  seg.ok.assign(n, 0);
  std::atomic<std::size_t> next{0};
  std::uint64_t base_id = gen.next_request;
  gen.next_request += n;
  SpanLog off(false);
  SpanLog& spans = traced ? *gen.log : off;
  ScopedSpan segment_span(spans, "lookup.segment");
  double start = wall_now() + 0.002;
  std::vector<double> last_done(threads, start);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (;;) {
        std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        double due = start + static_cast<double>(i) / rate;
        double now = wall_now();
        if (due > now) {
          std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
          now = wall_now();
        }
        bool ok = gen.exchange(*gen.clients[t], base_id + i, spans, segment_span.handle());
        double done = wall_now();
        seg.lag_ms[i] = 1e3 * (now - due);
        seg.latency_ms[i] = 1e3 * (done - due);
        seg.ok[i] = ok ? 1 : 0;
        last_done[t] = done;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  seg.elapsed_s = *std::max_element(last_done.begin(), last_done.end()) - start;
  return seg;
}

// Closed loop: every client sends its next request as soon as the previous
// answer is in, for `duration` seconds. Returns the completions per window
// of `window_s` seconds; failed exchanges are added to `failed`.
std::vector<double> run_closed_loop(Generator& gen, double duration, double window_s,
                                    std::uint64_t& attempted, std::uint64_t& failed) {
  std::size_t threads = gen.clients.size();
  std::size_t windows = std::max<std::size_t>(1, static_cast<std::size_t>(duration / window_s));
  std::vector<std::vector<double>> counts(threads, std::vector<double>(windows, 0));
  std::vector<std::uint64_t> sent(threads, 0);
  std::vector<std::uint64_t> bad(threads, 0);
  std::atomic<std::uint64_t> next{gen.next_request};
  SpanLog off(false);
  double start = wall_now();
  double end = start + static_cast<double>(windows) * window_s;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (double now = wall_now(); now < end; now = wall_now()) {
        bool ok = gen.exchange(*gen.clients[t], next.fetch_add(1, std::memory_order_relaxed), off,
                               kNoSpan);
        double done = wall_now();
        sent[t] += 1;
        bad[t] += ok ? 0 : 1;
        if (ok && done < end) counts[t][static_cast<std::size_t>((done - start) / window_s)] += 1;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  gen.next_request = next.load();
  std::vector<double> per_window(windows, 0);
  for (std::size_t t = 0; t < threads; ++t) {
    attempted += sent[t];
    failed += bad[t];
    for (std::size_t w = 0; w < windows; ++w) per_window[w] += counts[t][w] / window_s;
  }
  return per_window;
}

std::vector<Request> make_plan(const Options& opts, const Expected& expected,
                               const std::vector<std::size_t>& batch_sizes, double& miss_share) {
  std::vector<std::uint32_t> present;
  for (const auto& [selector, rows] : expected.rows) present.push_back(selector);
  std::mt19937_64 rng(opts.seed ^ 0x100c0ull);
  std::vector<std::uint32_t> absent;
  while (absent.size() < 1024) {
    auto selector = static_cast<std::uint32_t>(rng());
    if (expected.rows.count(selector) == 0) absent.push_back(selector);
  }
  std::vector<Request> plan(4096);
  std::size_t misses = 0;
  std::size_t total = 0;
  for (Request& request : plan) {
    std::size_t batch = std::max<std::size_t>(1, batch_sizes[rng() % batch_sizes.size()]);
    request.body = R"({"selectors":[)";
    for (std::size_t b = 0; b < batch; ++b) {
      bool miss = present.empty() || rng() % 10 == 0;
      std::uint32_t selector = miss ? absent[rng() % absent.size()] : present[rng() % present.size()];
      misses += miss ? 1 : 0;
      total += 1;
      request.selectors.push_back(selector);
      if (b != 0) request.body += ',';
      request.body += '"' + selector_hex(selector) + '"';
    }
    request.body += "]}";
  }
  miss_share = static_cast<double>(misses) / static_cast<double>(total);
  return plan;
}

// Direct LookupIndex probes: open time and per-lookup cost on hits and
// misses. A probe that disagrees with `expected` counts as a mismatch.
void probe_index(const std::string& dir, const Expected& expected, const std::vector<Request>& plan,
                 SpanLog& log, LookupPhase& out) {
  std::vector<double> opens;
  std::shared_ptr<const core::LookupIndex> index;
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(log, "LookupIndex::open");
    double t0 = wall_now();
    index = core::LookupIndex::open(dir);
    opens.push_back(1e3 * (wall_now() - t0));
  }
  out.index_open_ms = median(opens);
  if (index == nullptr) {
    out.direct_mismatches += 1;
    return;
  }
  std::vector<std::uint32_t> hits;
  std::vector<std::uint32_t> misses;
  for (const Request& request : plan) {
    for (std::uint32_t selector : request.selectors) {
      (expected.rows.count(selector) != 0 ? hits : misses).push_back(selector);
    }
  }
  auto sweep = [&](const std::vector<std::uint32_t>& selectors, bool want_hit) {
    if (selectors.empty()) return 0.0;
    constexpr std::size_t kProbes = 200000;
    ScopedSpan span(log, "LookupIndex::lookup");
    std::size_t wrong = 0;
    double t0 = wall_now();
    for (std::size_t i = 0; i < kProbes; ++i) {
      if (index->lookup(selectors[i % selectors.size()]).empty() == want_hit) ++wrong;
    }
    double ns = 1e9 * (wall_now() - t0) / static_cast<double>(kProbes);
    out.direct_mismatches += wrong;
    return ns;
  };
  out.hit_ns = sweep(hits, true);
  out.miss_ns = sweep(misses, false);
}

}  // namespace

void run_lookup_phase(const Options& opts, const Sizes& sizes, const std::string& dir_a,
                      const std::string& dir_b, const Expected& expected,
                      const std::vector<std::size_t>& batch_sizes, double seconds, bool ladder,
                      SpanLog& log, LookupPhase& out) {
  std::vector<Request> plan = make_plan(opts, expected, batch_sizes, out.miss_share);
  probe_index(dir_a, expected, plan, log, out);

  core::LookupService service;
  std::string error;
  {
    ScopedSpan span(log, "LookupService::load");
    if (!service.load(dir_a, &error)) {
      std::fprintf(stderr, "LookupService::load failed: %s\n", error.c_str());
      out.attempted += 1;
      out.failed += 1;
      return;
    }
  }
  core::LookupServerOptions server_opts;
  server_opts.threads = opts.jobs;
  core::LookupServer server(service, server_opts);
  if (!server.start(&error)) {
    std::fprintf(stderr, "LookupServer::start failed: %s\n", error.c_str());
    out.attempted += 1;
    out.failed += 1;
    return;
  }

  // One reloader plus jobs - 1 lookup clients: the generator never uses more
  // threads or connections than there are cores.
  Generator gen;
  gen.plan = &plan;
  gen.expected = &expected;
  gen.log = &log;
  std::size_t clients = std::max(1u, opts.jobs - 1);
  for (std::size_t i = 0; i < clients; ++i) {
    gen.clients.push_back(std::make_unique<HttpClient>(server.port(), 5000));
  }

  std::mutex reload_mutex;
  std::condition_variable reload_cv;
  bool stop_reloads = false;
  std::uint64_t reloads = 0;
  std::uint64_t reload_failures = 0;
  std::thread reloader([&] {
    HttpClient client(server.port(), 5000);
    HttpReply reply;
    std::string reload_error;
    std::string bodies[2] = {
        R"({"dir":")" + core::json_escape(fs::absolute(dir_b).string()) + R"("})",
        R"({"dir":")" + core::json_escape(fs::absolute(dir_a).string()) + R"("})"};
    for (std::uint64_t k = 0;; ++k) {
      {
        std::unique_lock<std::mutex> lock(reload_mutex);
        if (reload_cv.wait_for(lock, std::chrono::duration<double>(sizes.reload_interval_s),
                               [&] { return stop_reloads; })) {
          break;
        }
      }
      double t0 = wall_now();
      bool ok = client.post("/reload", bodies[k % 2], reply, reload_error);
      double t1 = wall_now();
      log.record("http.reload", t0, t1, kNoSpan, k);
      std::lock_guard<std::mutex> lock(reload_mutex);
      out.reload_ms.push_back(1e3 * (t1 - t0));
      reloads += 1;
      if (!ok || reply.status != 200) reload_failures += 1;
    }
  });

  auto account = [&](const Segment& s) {
    out.attempted += s.ok.size();
    out.failed += s.failed();
    out.lag_ms.insert(out.lag_ms.end(), s.lag_ms.begin(), s.lag_ms.end());
  };
  // Latency figures come from windows of 1000 consecutive requests (so each
  // window's p99 has ten samples beyond it); the run reports medians over
  // windows, so a host hiccup spoils the one window it falls in instead of
  // deciding the whole run's tail.
  constexpr std::size_t kWindow = 1000;

  // Base rate: the latency figures. A traced run measures half of it with
  // HTTP spans on, so the tracing overhead shows beside the untraced half.
  double base_time = (ladder ? 0.45 : 0.6) * seconds;
  Segment base = run_segment(gen, sizes.base_rate, opts.trace ? base_time / 2 : base_time, false);
  account(base);
  for (double v : window_quantiles(base.latency_ms, 0.5, kWindow)) out.p50_windows.push_back(v);
  for (double v : window_quantiles(base.latency_ms, 0.99, kWindow)) out.p99_windows.push_back(v);
  out.base_samples += base.latency_ms.size();
  if (opts.trace) {
    Segment traced = run_segment(gen, sizes.base_rate, base_time / 2, true);
    account(traced);
    out.untraced_p50_ms.push_back(median(base.latency_ms));
    out.traced_p50_ms.push_back(median(traced.latency_ms));
  }

  // Capacity: the clients send back to back. The run reports the median over
  // 0.25 s windows of the requests completed per second, and the process CPU
  // time (clients, server, reloader) per correctly answered request.
  std::uint64_t closed_attempted = 0;
  std::uint64_t closed_failed = 0;
  double cpu0 = process_cpu();
  for (double v : run_closed_loop(gen, (ladder ? 0.3 : 0.4) * seconds, 0.25, closed_attempted,
                                  closed_failed)) {
    out.capacity_windows.push_back(v);
  }
  out.closed_cpu_s += process_cpu() - cpu0;
  out.closed_answered += closed_attempted - closed_failed;
  out.attempted += closed_attempted;
  out.failed += closed_failed;

  // Offered-rate ladder (1.5x steps from the base rate): the highest rate
  // whose windowed p99 stays within 1 ms, with every answer correct and no
  // backlog growing into the last window.
  double ladder_end = wall_now() + 0.25 * seconds;
  for (double rate = sizes.base_rate; ladder && wall_now() < ladder_end; rate *= 1.5) {
    Segment s = run_segment(gen, rate, 4.0 * std::max(static_cast<double>(kWindow) / rate, 0.1),
                            false);
    account(s);
    std::size_t window = std::min(kWindow, s.ok.size());
    if (s.failed() != 0 || median(window_quantiles(s.latency_ms, 0.99, window)) > 1.0 ||
        window_quantiles(s.lag_ms, 0.5, window).back() > 1.0) {
      break;
    }
    out.highest_offer = rate;
    out.max_rps = static_cast<double>(s.ok.size()) / s.elapsed_s;
  }

  {
    std::lock_guard<std::mutex> lock(reload_mutex);
    stop_reloads = true;
  }
  reload_cv.notify_all();
  reloader.join();
  server.stop();

  out.attempted += reloads;
  out.failed += reload_failures;
  for (const auto& client : gen.clients) {
    out.connections += client->connections();
    out.connect_s += client->connect_seconds();
  }
  out.requests += gen.next_request;
  core::LookupServerStats stats = server.stats();
  out.server_requests += stats.requests;
  out.bad_requests += stats.bad_requests;
  out.server_reloads += stats.reloads;
  out.server_reload_failures += stats.reload_failures;
  out.odd_generations += gen.odd_generations.load();
  out.even_generations += gen.even_generations.load();
}

}  // namespace perfbench

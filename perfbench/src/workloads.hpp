// The benchmark's workloads and the phases they are built from.
//
// Every workload drives SigRec's whole path — bytecode in, recovery,
// selector shards, the compacted index, batched HTTP lookups — and differs
// in its input and in where the measured seconds go:
//
//   scan_unique   .hex files of an open-source-like corpus with almost no
//                 repeated code; most of the time in repeated scans.
//   scan_clones   heavy contracts deployed at many addresses, fetched with
//                 eth_getCode from an in-process mock node; most of the time
//                 in repeated scans.
//   lookup_mixed  the scan_unique corpus scanned during set-up; all of the
//                 time in open-loop batched lookups with hot reloads.
//
// Only deployment settings are chosen here (jobs, source, sink directory,
// shard bits, port, server threads); every other engine option keeps its
// shipped default.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "compiler/contract_spec.hpp"
#include "corpus/datasets.hpp"
#include "evm/bytecode.hpp"
#include "sigrec/batch.hpp"
#include "sigrec/lookup.hpp"
#include "sigrec/pipeline.hpp"

namespace sigrec::test {
class MockRpcServer;
}

namespace perfbench {

enum class Workload { ScanUnique, ScanClones, LookupMixed };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

struct Options {
  Workload workload = Workload::ScanUnique;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;            // self-test size: a few dozen contracts
  bool corrupt_answer = false;  // self-test: falsify one expected answer
  unsigned jobs = 1;            // worker, server and client thread count
  std::string run_dir;          // scratch directory of this run
};

// Input sizes and offered lookup rates.
struct Sizes {
  std::size_t unique_contracts = 0;  // scan_unique and lookup_mixed corpus
  std::size_t clone_uniques = 0;     // distinct heavy contracts
  std::size_t clone_copies = 0;      // addresses per distinct contract
  int setup_repeats = 0;             // set-ups per run; setup_s is their median
  double base_rate = 0;              // req/s for lookup_p50_ms / lookup_p99_ms
  double reload_interval_s = 0;      // time between two POST /reload
};

[[nodiscard]] Sizes sizes_for(const Options& opts);

// Generated inputs of one run. The program under test sees only the files
// or the mock node; the specs are the ground truth for accuracy.
struct Inputs {
  sigrec::corpus::Corpus corpus;             // one spec per distinct contract
  std::vector<sigrec::evm::Bytecode> codes;  // compiled specs, same order
  std::vector<std::size_t> spec_of;          // source ordinal -> spec index
  std::vector<std::string> files;            // .hex inputs (file-sourced workloads)
  std::vector<std::string> addresses;        // eth_getCode inputs (scan_clones)
  std::unique_ptr<sigrec::test::MockRpcServer> node;

  Inputs();
  ~Inputs();
  Inputs(Inputs&&) noexcept;
  Inputs& operator=(Inputs&&) noexcept;

  [[nodiscard]] std::size_t contracts() const { return spec_of.size(); }
  // A fresh source over the inputs, as the workload ingests them.
  [[nodiscard]] std::unique_ptr<sigrec::core::ContractSource> make_source() const;
};

// Generates, compiles and publishes (files or mock node) the inputs.
[[nodiscard]] Inputs build_inputs(const Options& opts, const Sizes& sizes, const std::string& dir);

// Answers the index must give: merge_shards rows (ordinal column dropped)
// grouped by selector, each group sorted and newline-joined.
struct Expected {
  std::map<std::uint32_t, std::string> rows;
  std::map<std::uint32_t, std::vector<std::size_t>> owners;  // selector -> ordinals
};

// One timed scan: source -> recover_stream (jobs workers, ShardedSink with
// 4 shard bits) -> compact_shards, then the correctness checks.
struct ScanPass {
  bool traced = false;
  bool warmup = false;  // checked, but kept out of the timing figures
  std::size_t contracts = 0;
  std::size_t failed = 0;  // contracts failing any check
  std::size_t functions_scored = 0;
  std::size_t functions_correct = 0;
  double wall_s = 0;          // recover_stream + compact_shards
  double cpu_s = 0;           // process CPU over the same interval
  double recover_wall_s = 0;  // recover_stream alone
  double recover_cpu_s = 0;
  double compact_s = 0;
  double shard_write_s = 0;  // the sink's own encode+append time
  std::uint64_t shard_records = 0;
  double ingest_next_s = 0;  // traced passes only
  std::uint64_t ingest_items = 0;
  std::uint64_t ingest_errors = 0;
  std::optional<sigrec::core::SourceStats> fetch;
  sigrec::core::CompactStats compact;
  sigrec::core::BatchResult batch;
};

// Scans the inputs into `dir`. With a traced pass, `log` gets spans around
// the pass, recover_stream, each ContractSource::next and compact_shards.
// `expected` receives the merge_shards answers of this pass.
[[nodiscard]] ScanPass run_scan_pass(const Inputs& inputs, const Options& opts,
                                     const std::string& dir, SpanLog& log, bool traced,
                                     Expected& expected);

// Writes the pass's records again with 0 shard bits into `dir` and compacts
// them: the second generation the lookup reloads alternate with. Returns the
// number of selectors whose index answer differs from `expected`, or -1 when
// the directory cannot be built.
[[nodiscard]] long build_unsharded_index(const ScanPass& pass, const std::string& dir,
                                         const Expected& expected);

// What the lookup phases of a run measured, accumulated over its phases.
struct LookupPhase {
  std::vector<double> p50_windows;       // base rate, per 1000-request window
  std::vector<double> p99_windows;
  std::size_t base_samples = 0;          // untraced base-rate requests
  std::vector<double> capacity_windows;  // closed loop, req/s per 0.25 s window
  double closed_cpu_s = 0;               // process CPU during the closed loops
  std::uint64_t closed_answered = 0;     // correct answers in the closed loops
  double max_rps = 0;        // achieved rate at the highest passing offer
  double highest_offer = 0;  // that offer, req/s
  std::uint64_t attempted = 0;  // lookup requests + reloads
  std::uint64_t failed = 0;
  std::uint64_t odd_generations = 0;  // correct answers per reload generation
  std::uint64_t even_generations = 0;
  std::vector<double> lag_ms;  // send time - due time, open-loop requests
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  double connect_s = 0;
  std::vector<double> reload_ms;
  std::uint64_t server_requests = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t server_reloads = 0;
  std::uint64_t server_reload_failures = 0;
  double miss_share = 0;
  double index_open_ms = 0;
  double hit_ns = 0;
  double miss_ns = 0;
  std::uint64_t direct_mismatches = 0;
  std::vector<double> traced_p50_ms;    // base rate with HTTP spans on (traced runs)
  std::vector<double> untraced_p50_ms;  // base rate with spans off, same phases
};

// Serves `dir_a` (4 shard bits) and `dir_b` (0 shard bits) from an
// in-process LookupServer for `seconds` and drives it with an open-loop
// generator: batched POST /lookup at a base rate, then back to back, then
// (with `ladder`) at rising offered rates, while a reloader alternates the
// two directories. Adds what it measured to `out`.
void run_lookup_phase(const Options& opts, const Sizes& sizes, const std::string& dir_a,
                      const std::string& dir_b, const Expected& expected,
                      const std::vector<std::size_t>& batch_sizes, double seconds, bool ladder,
                      SpanLog& log, LookupPhase& out);

}  // namespace perfbench

#include "layers.hpp"

#include "sigrec/function_extractor.hpp"
#include "sigrec/rules.hpp"
#include "sigrec/tase.hpp"
#include "symexec/executor.hpp"

namespace perfbench {

namespace core = sigrec::core;

std::optional<core::SourceItem> TimingSource::next() {
  double start = wall_now();
  std::optional<core::SourceItem> item = inner_.next();
  double end = wall_now();
  next_seconds_ += end - start;
  if (item.has_value()) {
    items_ += 1;
    if (item->failed()) errors_ += 1;
  }
  log_.record("ContractSource::next", start, end, parent_, item ? item->ordinal : 0);
  return item;
}

LayerReplay replay_layers(const std::vector<sigrec::evm::Bytecode>& codes, SpanLog& log) {
  LayerReplay r;
  std::uint64_t id = 0;
  for (const sigrec::evm::Bytecode& original : codes) {
    ScopedSpan contract_span(log, "replay.contract", kNoSpan, id++);
    sigrec::evm::Bytecode code(original);  // a copy starts without a disassembly

    double c0 = thread_cpu();
    {
      ScopedSpan span(log, "Bytecode::disassembly", contract_span.handle());
      (void)code.disassembly();
    }
    double c1 = thread_cpu();
    r.disasm_s += c1 - c0;
    r.disasm_calls += 1;

    std::vector<core::DispatchedFunction> table;
    {
      ScopedSpan span(log, "extract_dispatch_table", contract_span.handle());
      table = core::extract_dispatch_table(code);
    }
    double c2 = thread_cpu();
    r.extract_s += c2 - c1;
    r.functions += table.size();
    r.functions_per_code.push_back(table.size());

    sigrec::symexec::SymExecutor executor(code);
    r.symexec_s += thread_cpu() - c2;
    for (const core::DispatchedFunction& fn : table) {
      double s0 = thread_cpu();
      sigrec::symexec::Trace trace;
      {
        ScopedSpan span(log, "SymExecutor::run", contract_span.handle(), fn.selector);
        trace = executor.run(fn.selector);
      }
      double s1 = thread_cpu();
      core::RuleStats stats;
      {
        ScopedSpan span(log, "run_tase", contract_span.handle(), fn.selector);
        (void)core::run_tase(trace, stats);
      }
      double s2 = thread_cpu();
      r.symexec_s += s1 - s0;
      r.tase_s += s2 - s1;
      r.runs += 1;
      r.tase_calls += 1;
      r.steps += trace.total_steps;
      r.paths += trace.paths_explored;
      if (trace.status != sigrec::symexec::RecoveryStatus::Complete) r.incomplete_runs += 1;
    }
  }
  return r;
}

}  // namespace perfbench

#include "codegen/install.h"

#include <memory>
#include <utility>
#include <vector>

#include "codegen/codegen_engine.h"
#include "codegen/compiled_pipeline.h"
#include "codegen/lower_chain.h"
#include "engine/query_options.h"
#include "exec/bypass_partition.h"
#include "exec/filter.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "exec/project.h"
#include "exec/scan.h"

namespace bypass {
namespace {

/// The σ prefix of a scan-rooted chain. `filters` parallels `ops`
/// (ops.front() is the fallback entry when the prefix is non-empty);
/// `next` is the first operator past the prefix, fed on `next_in_port`,
/// the terminal candidate. It is null after an unsupported filter or a
/// fan-out, where a terminal would not be contiguous with the prefix.
struct DiscoveredChain {
  std::vector<const Expr*> filters;
  std::vector<PhysOp*> ops;
  PhysOp* next = nullptr;
  int next_in_port = 0;
};

/// Walks downstream from the scan's single consumer `first` (fed on
/// `in_port`), accepting filters while each lowers and has exactly one
/// port-0 consumer fed on in-port 0. Stops at the first operator that is
/// not a supported filter — the compiled prefix must start at the scan.
DiscoveredChain DiscoverChain(PhysOp* first, int in_port,
                              const Schema& schema) {
  DiscoveredChain chain;
  PhysOp* cur = first;
  while (in_port == 0) {
    auto* filter = dynamic_cast<FilterOp*>(cur);
    if (filter == nullptr) break;
    if (!PredicateSupported(filter->predicate(), schema)) return chain;
    chain.filters.push_back(&filter->predicate());
    chain.ops.push_back(filter);
    // Extend only through an unshared port-0 link; a fan-out or
    // off-port consumer makes this filter the end of the chain.
    if (filter->num_consumers(kPortOut) != 1) return chain;
    const auto edges = filter->consumers(kPortOut);
    cur = edges[0].consumer;
    in_port = edges[0].in_port;
  }
  chain.next = cur;
  chain.next_in_port = in_port;
  return chain;
}

/// A recognized terminal: the lowering descriptor, the interpreted
/// operator that implements it (its consumer edges are mirrored by the
/// compiled operator; for a group-by terminal there are none), and the
/// hash structures a breaker terminal probes.
struct RecognizedTerminal {
  ChainTerminal desc;
  PhysOp* op = nullptr;
  HashJoinOp* join = nullptr;
  HashGroupByOp* group = nullptr;
};

/// Maps a slot through the accumulated projection remap (null = identity);
/// -1 when out of range.
int ResolveSlot(int slot, const std::vector<int>* remap) {
  if (slot < 0) return -1;
  if (remap == nullptr) return slot;
  if (static_cast<size_t>(slot) >= remap->size()) return -1;
  return (*remap)[static_cast<size_t>(slot)];
}

/// Checks a group-by against the single-int64-key fast path and fills the
/// terminal's key/fold descriptors. `remap` maps the group-by's input
/// slots back to join-output slots (null when the group-by reads the scan
/// directly); slots must land inside the scan schema — in the fused-join
/// shape that is exactly the probe side, so build-side keys or arguments
/// decline here. DISTINCT, non-column arguments, and non-numeric argument
/// types stay interpreted (the lowering re-checks types).
bool RecognizeGroupBy(HashGroupByOp* group, const std::vector<int>* remap,
                      const Schema& schema, ChainTerminal* t) {
  if (group->scalar()) return false;
  if (group->key_slots().size() != 1) return false;
  const int width = static_cast<int>(schema.num_columns());
  const int key = ResolveSlot(group->key_slots()[0], remap);
  if (key < 0 || key >= width ||
      schema.column(static_cast<size_t>(key)).type != DataType::kInt64) {
    return false;
  }
  t->group_slot = key;
  for (const AggregateSpec& spec : *group->aggregates()) {
    if (spec.distinct) return false;
    CgAggFold fold;
    fold.func = spec.func;
    if (spec.arg == nullptr) {
      if (spec.func != AggFunc::kCount) return false;
      fold.star = true;
    } else {
      if (spec.arg->kind() != ExprKind::kColumnRef) return false;
      const auto* ref = static_cast<const ColumnRefExpr*>(spec.arg.get());
      if (ref->is_outer()) return false;
      const int slot = ResolveSlot(ref->slot(), remap);
      if (slot < 0 || slot >= width) return false;
      const DataType type = schema.column(static_cast<size_t>(slot)).type;
      if (type != DataType::kInt64 && type != DataType::kDouble) {
        return false;
      }
      fold.slot = slot;
      fold.type = type;
    }
    t->aggs.push_back(fold);
  }
  return true;
}

/// Probes `op` for a fusable breaker terminal. A hash join must be
/// fed on its probe (left) port with a single non-residual int64 key; a
/// group-by downstream of the join — through identity or pure
/// column-copy Π layers — upgrades the shape to the fully fused
/// probe+accumulate loop. Map χ layers decline: physical operators carry
/// no schemas, so the pass-through width of an append is unknowable
/// here, and a wrong remap would silently fold the wrong column.
bool RecognizeBreaker(PhysOp* op, int in_port, const Schema& schema,
                      RecognizedTerminal* out) {
  if (auto* group = dynamic_cast<HashGroupByOp*>(op)) {
    if (in_port != 0) return false;
    ChainTerminal t;
    t.kind = ChainTerminalKind::kGroupBy;
    if (!RecognizeGroupBy(group, nullptr, schema, &t)) return false;
    out->desc = std::move(t);
    out->op = group;
    out->group = group;
    return true;
  }
  auto* join = dynamic_cast<HashJoinOp*>(op);
  if (join == nullptr) return false;
  if (in_port != BinaryPhysOp::kLeft) return false;  // build side: never
  if (join->has_residual()) return false;
  if (join->probe_key_slots().size() != 1) return false;
  const int probe_slot = join->probe_key_slots()[0];
  if (probe_slot < 0 ||
      probe_slot >= static_cast<int>(schema.num_columns()) ||
      schema.column(static_cast<size_t>(probe_slot)).type !=
          DataType::kInt64) {
    return false;
  }
  out->op = join;
  out->join = join;

  // Walk the join's output toward a group-by, composing the slot remap
  // of any projection copy layers. Every link must be unshared and feed
  // in-port 0 (the group-by's only input) — a fan-out keeps the plain
  // probe shape, whose pairs the compiled operator materializes for the
  // join's own consumers. A pruned join's keep lists are the first
  // layer: its output slot i is probe-side slot keep.left()[i], and the
  // build-side slots after those resolve to -1 (declined).
  std::vector<int> remap;
  bool have_remap = false;
  if (const JoinKeep& keep = join->keep(); !keep.all()) {
    remap = keep.left();
    remap.resize(keep.left().size() + keep.right().size(), -1);
    have_remap = true;
  }
  PhysOp* cur = join;
  while (cur->num_consumers(kPortOut) == 1) {
    const auto edges = cur->consumers(kPortOut);
    if (edges[0].in_port != 0) break;
    PhysOp* next = edges[0].consumer;
    if (auto* proj = dynamic_cast<ProjectPhysOp*>(next)) {
      if (proj->identity()) {
        cur = proj;
        continue;
      }
      std::vector<int> composed(proj->exprs().size(), -1);
      bool copies = true;
      for (size_t i = 0; i < proj->exprs().size(); ++i) {
        const Expr* e = proj->exprs()[i].get();
        if (e->kind() != ExprKind::kColumnRef) {
          copies = false;
          break;
        }
        const auto* ref = static_cast<const ColumnRefExpr*>(e);
        if (ref->is_outer()) {
          copies = false;
          break;
        }
        composed[i] =
            ResolveSlot(ref->slot(), have_remap ? &remap : nullptr);
        if (composed[i] < 0) {
          copies = false;
          break;
        }
      }
      if (!copies) break;
      remap = std::move(composed);
      have_remap = true;
      cur = proj;
      continue;
    }
    if (auto* group = dynamic_cast<HashGroupByOp*>(next)) {
      ChainTerminal t;
      t.kind = ChainTerminalKind::kJoinGroupBy;
      t.probe_slot = probe_slot;
      if (RecognizeGroupBy(group, have_remap ? &remap : nullptr, schema,
                           &t)) {
        out->desc = std::move(t);
        out->group = group;
        return true;
      }
      break;
    }
    break;
  }

  out->desc.kind = ChainTerminalKind::kJoinProbe;
  out->desc.probe_slot = probe_slot;
  return true;
}

/// Recognizes the terminal that closes `chain`: a bypass partition (σ±
/// at k = 1) whose predicates lower, or a fusable breaker. Anything else
/// — and any terminal the lowering later declines — leaves a non-empty
/// filter prefix on the filter-survivors terminal.
bool RecognizeTerminal(const DiscoveredChain& chain, const Schema& schema,
                       RecognizedTerminal* out) {
  PhysOp* next = chain.next;
  if (next == nullptr) return false;
  if (auto* part = dynamic_cast<BypassPartitionKOp*>(next)) {
    out->desc.kind = ChainTerminalKind::kPartitionK;
    for (const ExprPtr& p : part->predicates()) {
      if (!PredicateSupported(*p, schema)) return false;
      out->desc.predicates.push_back(p.get());
    }
    out->op = part;
    return true;
  }
  return RecognizeBreaker(next, chain.next_in_port, schema, out);
}

/// Lowers and submits one chain, then splices the compiled operator
/// between the scan and the terminal's consumers. False when the chain
/// does not lower or the engine declined the submit.
bool Splice(PhysicalPlan* plan, TableScanOp* scan, CodegenEngine* engine,
            const QueryOptions& options, uint64_t stats_epoch,
            uint64_t plan_tag, const DiscoveredChain& chain,
            const RecognizedTerminal& terminal) {
  LoweredChain lowered;
  if (!LowerChain(chain.filters, terminal.desc, scan->table_schema(),
                  &lowered)) {
    return false;
  }
  // A routing terminal's ports must match the operator it replaces.
  if (!IsBreakerTerminal(terminal.desc.kind) &&
      lowered.num_out_ports != terminal.op->num_out_ports()) {
    return false;
  }
  CompiledFnSlotPtr slot = engine->Submit(
      lowered.source, stats_epoch, options.codegen_synchronous, plan_tag);
  if (slot == nullptr) return false;
  PhysOp* head = chain.ops.empty() ? terminal.op : chain.ops.front();
  auto compiled = std::make_unique<CompiledPipelineOp>(
      std::move(slot), std::move(lowered), head, terminal.join,
      terminal.group);
  // Mirror the terminal's wiring: the compiled operator emits to the same
  // consumers the interpreted chain feeds. The terminal keeps its edges —
  // fallback batches and the single end-of-stream per port still flow
  // through it. A group-by terminal is mirrored with no edges: results
  // leave through the group-by's own finish.
  if (terminal.group == nullptr) {
    for (int p = 0; p < terminal.op->num_out_ports(); ++p) {
      for (const PhysOp::ConsumerEdge& e : terminal.op->consumers(p)) {
        compiled->AddConsumer(p, e.consumer, e.in_port);
      }
      compiled->set_estimated_rows(p, terminal.op->estimated_rows(p));
    }
  }
  scan->ReplaceConsumers(kPortOut, compiled.get(), 0);
  plan->ops.push_back(std::move(compiled));
  return true;
}

}  // namespace

int InstallCompiledPipelines(PhysicalPlan* plan, CodegenEngine* engine,
                             const QueryOptions& options,
                             uint64_t stats_epoch, uint64_t plan_tag) {
  if (plan == nullptr || engine == nullptr || !engine->Available()) {
    return 0;
  }
  int installed = 0;
  for (TableScanOp* scan : plan->sources) {
    if (scan->num_consumers(kPortOut) != 1) continue;
    const auto scan_edges = scan->consumers(kPortOut);
    const Schema& schema = scan->table_schema();
    const DiscoveredChain chain = DiscoverChain(
        scan_edges[0].consumer, scan_edges[0].in_port, schema);
    RecognizedTerminal terminal;
    if (RecognizeTerminal(chain, schema, &terminal) &&
        Splice(plan, scan, engine, options, stats_epoch, plan_tag, chain,
               terminal)) {
      ++installed;
      continue;
    }
    // No terminal, or a declined one: the filter prefix alone still
    // compiles, ending in its last filter's survivors.
    if (chain.ops.empty()) continue;
    RecognizedTerminal survivors;
    survivors.op = chain.ops.back();
    if (Splice(plan, scan, engine, options, stats_epoch, plan_tag, chain,
               survivors)) {
      ++installed;
    }
  }
  return installed;
}

}  // namespace bypass

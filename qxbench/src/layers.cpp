#include "layers.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace qxbench {

namespace {

using qxmap::obs::MetricsRegistry;

constexpr const char* kCounters[] = {
    "qxmap_cdcl_conflicts_total",
    "qxmap_cdcl_decisions_total",
    "qxmap_cdcl_propagations_total",
    "qxmap_cdcl_restarts_total",
    "qxmap_cdcl_learned_total",
    "qxmap_cdcl_learnt_deleted_total",
    "qxmap_engine_bound_polls_total",
    "qxmap_engine_bound_tightenings_total",
    "qxmap_exact_maps_total",
    "qxmap_exact_instances_solved_total",
    "qxmap_executor_tasks_executed_total",
    "qxmap_executor_steals_total",
    "qxmap_service_requests_total",
    "qxmap_service_cache_hits_total",
    "qxmap_service_dedup_joins_total",
    "qxmap_service_solves_total",
    "qxmap_swap_cost_cache_table_hits_total",
    "qxmap_swap_cost_cache_table_misses_total",
    "qxmap_swap_cost_cache_distance_hits_total",
    "qxmap_swap_cost_cache_distance_misses_total",
};
constexpr const char* kGauges[] = {"qxmap_executor_queue_depth_high_water"};
constexpr const char* kHistograms[] = {"qxmap_executor_queue_wait_us",
                                       "qxmap_executor_task_run_us"};

bool is_gauge(const std::string& key) {
  return std::find(std::begin(kGauges), std::end(kGauges), key) != std::end(kGauges);
}

}  // namespace

RegistryReading RegistryReading::take() {
  // Looking an instrument up registers it when the library has not yet done
  // so; the help text is only used in that case. Kinds match the library's.
  auto& registry = MetricsRegistry::instance();
  RegistryReading r;
  for (const char* name : kCounters) {
    r.values[name] = static_cast<double>(registry.counter(name, name).value());
  }
  for (const char* name : kGauges) {
    r.values[name] = static_cast<double>(registry.gauge(name, name).value());
  }
  for (const char* name : kHistograms) {
    const auto& h = registry.histogram(name, name);
    r.values[std::string(name) + ".count"] = static_cast<double>(h.count());
    r.values[std::string(name) + ".sum"] = static_cast<double>(h.sum());
  }
  return r;
}

RegistryReading RegistryReading::since(const RegistryReading& earlier) const {
  RegistryReading d;
  for (const auto& [key, value] : values) {
    d.values[key] = is_gauge(key) ? value : value - earlier[key];
  }
  return d;
}

double RegistryReading::operator[](const std::string& key) const {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

std::map<std::string, SpanTotals> span_totals(const std::vector<qxmap::obs::TraceEvent>& events) {
  struct Open {
    const qxmap::obs::TraceEvent* event;
    std::uint64_t child_ns;
  };
  std::map<std::uint32_t, std::vector<const qxmap::obs::TraceEvent*>> by_thread;
  for (const auto& e : events) {
    if (e.phase == 'X') by_thread[e.tid].push_back(&e);
  }
  std::map<std::string, SpanTotals> totals;
  auto close = [&](const Open& open) {
    SpanTotals& t = totals[open.event->name];
    ++t.count;
    t.total_ms += static_cast<double>(open.event->dur_ns) / 1e6;
    const std::uint64_t self =
        open.event->dur_ns > open.child_ns ? open.event->dur_ns - open.child_ns : 0;
    t.self_ms += static_cast<double>(self) / 1e6;
  };
  for (auto& [tid, spans] : by_thread) {
    std::stable_sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->depth < b->depth;
    });
    std::vector<Open> stack;
    for (const auto* span : spans) {
      while (!stack.empty() && stack.back().event->depth >= span->depth) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty() && stack.back().event->depth + 1 == span->depth) {
        stack.back().child_ns += span->dur_ns;
      }
      stack.push_back({span, 0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return totals;
}

}  // namespace qxbench

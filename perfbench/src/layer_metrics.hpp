#pragma once

/// \file layer_metrics.hpp
/// Engine routing counts shared by every workload's traced run.

#include <cstdint>
#include <initializer_list>
#include <string>

#include "common.hpp"
#include "engine/backend.hpp"
#include "engine/engine.hpp"

namespace perfbench {

/// engine.jobs.<backend>, engine.jobs.small and engine.jobs.large: completed
/// jobs per round of the workload, summed over every engine in `now` (with
/// the matching snapshot before the timed phase in `before`).  A round is a
/// fixed sequence of operations, so with inputs far from the calibrated
/// cuts these counts repeat exactly from run to run.
inline void report_engine_jobs(std::initializer_list<pitk::engine::EngineStats> now,
                               std::initializer_list<pitk::engine::EngineStats> before,
                               std::uint64_t rounds, Report& rep) {
  std::uint64_t per_backend[pitk::engine::num_backends] = {};
  std::uint64_t small = 0, large = 0;
  const auto* b = before.begin();
  for (const auto& s : now) {
    for (int i = 0; i < pitk::engine::num_backends; ++i)
      per_backend[i] += s.per_backend[i] - b->per_backend[i];
    small += s.jobs_small - b->jobs_small;
    large += s.jobs_large - b->jobs_large;
    ++b;
  }
  const double r = static_cast<double>(rounds);
  for (const auto& info : pitk::engine::all_backends())
    rep.metric(std::string("engine.jobs.") + info.name,
               static_cast<double>(per_backend[pitk::engine::backend_index(info.id)]) / r,
               "count");
  rep.metric("engine.jobs.small", static_cast<double>(small) / r, "count");
  rep.metric("engine.jobs.large", static_cast<double>(large) / r, "count");
}

}  // namespace perfbench

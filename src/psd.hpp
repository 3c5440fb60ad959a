// Umbrella header for the psd library.
//
// psdserv — processing-rate allocation for proportional slowdown
// differentiation (PSD) on Internet servers, after Zhou, Wei & Xu,
// IPDPS 2004.  See README.md for a tour of the layers.
#pragma once

#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

#include "stats/ci.hpp"
#include "stats/histogram.hpp"
#include "stats/interval_series.hpp"
#include "stats/online.hpp"
#include "stats/percentile.hpp"

#include "dist/alias_table.hpp"
#include "dist/factory.hpp"
#include "dist/sampler.hpp"
#include "dist/ziggurat.hpp"

#include "queueing/md1.hpp"
#include "queueing/mg1.hpp"
#include "queueing/mg1_priority.hpp"

#include "sim/periodic.hpp"
#include "sim/simulator.hpp"

#include "workload/arrival.hpp"
#include "workload/class_spec.hpp"
#include "workload/generator.hpp"
#include "workload/session.hpp"
#include "workload/trace.hpp"

#include "sched/dedicated_rate.hpp"
#include "sched/lottery.hpp"
#include "sched/priority.hpp"
#include "sched/sfq.hpp"

#include "admission/admission.hpp"
#include "cluster/dispatcher.hpp"
#include "server/server.hpp"

#include "core/adaptive_psd.hpp"
#include "core/hetero_psd_allocator.hpp"
#include "core/psd_allocation.hpp"
#include "core/psd_rate_allocator.hpp"

#include "baselines/pdd_policies.hpp"
#include "baselines/static_allocators.hpp"

#include "experiment/figures.hpp"
#include "experiment/lockstep.hpp"
#include "experiment/runner.hpp"
#include "experiment/table.hpp"

#include "sweep/campaign.hpp"
#include "sweep/grid.hpp"
#include "sweep/jsonl.hpp"
#include "sweep/thread_pool.hpp"

#include "obs/config.hpp"
#include "obs/counters.hpp"
#include "obs/exporter.hpp"
#include "obs/prof.hpp"

#include "rt/clock.hpp"
#include "rt/controller.hpp"
#include "rt/loadgen.hpp"
#include "rt/mpsc_queue.hpp"
#include "rt/runtime.hpp"
#include "rt/seqlock.hpp"
#include "rt/shard.hpp"
#include "rt/token_bucket.hpp"

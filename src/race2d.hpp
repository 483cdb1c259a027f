// race2d — Race Detection in Two Dimensions (Dimitrov, Vechev, Sarkar,
// SPAA 2015), reproduced as a library.
//
// Umbrella header: pulls in the whole public API.
//
//   Quick start:
//     #include "race2d.hpp"
//     auto result = race2d::run_with_detection([](race2d::TaskContext& ctx) {
//       int shared = 0;
//       auto child = ctx.fork([&](race2d::TaskContext& c) { c.store(shared, 1); });
//       ctx.store(shared, 2);   // concurrent with the child's write: a race
//       ctx.join(child);
//     });
//     // result.races holds one write-write report.
#pragma once

#include "core/access_history.hpp"    // Θ(1)-per-location shadow memory
#include "core/addressing.hpp"        // granularity policies (front-end)
#include "core/analysis.hpp"          // race-report aggregation
#include "core/delayed_walk.hpp"      // Figure 8: relaxed online suprema
#include "core/detector.hpp"          // Figure 6: the race detectors
#include "core/replay.hpp"            // offline replay drivers (DSU, DePa)
#include "core/report.hpp"            // race reports & policies
#include "core/streaming_detector.hpp" // language-independent online form
#include "core/suprema_walk.hpp"      // Figure 5: suprema in 2D lattices
#include "graph/digraph.hpp"          // DAG substrate
#include "graph/lca.hpp"              // Tarjan offline LCA (Remark 2)
#include "graph/reachability.hpp"     // transitive closure / oracles
#include "graph/topo.hpp"             // topological orders
#include "lattice/delayed.hpp"        // Definition 3 + thread collapse (eq. 8)
#include "lattice/diagram.hpp"        // monotone planar diagrams
#include "lattice/dimension.hpp"      // Dushnik–Miller realizers (Remark 3)
#include "lattice/dot.hpp"            // Graphviz export
#include "lattice/generate.hpp"       // grids, SP, random fork-join lattices
#include "lattice/poset.hpp"          // brute-force suprema (ground truth)
#include "lattice/realizer.hpp"       // Remark 1: diagram from bare digraph
#include "lattice/traversal.hpp"      // Definition 1 traversals
#include "lattice/validate.hpp"       // lattice/diagram checks
#include "baselines/fasttrack.hpp"    // FastTrack-style baseline [13]
#include "baselines/naive.hpp"        // §2.3 naive detector
#include "baselines/oracle.hpp"       // happens-before ground truth
#include "baselines/espbags.hpp"      // ESP-bags baseline [18]
#include "baselines/spbags.hpp"       // SP-bags baseline [12]
#include "baselines/vector_clock.hpp" // DJIT+-style vector clocks
#include "runtime/async_finish.hpp"   // X10-style sugar (§2.1)
#include "runtime/future.hpp"         // futures over restricted fork-join
#include "runtime/monitored.hpp"      // RAII-instrumented shared variables
#include "runtime/instrumented.hpp"   // executor + detector glue
#include "runtime/line.hpp"           // Figure 9 line discipline
#include "runtime/listener.hpp"       // instrumentation hooks
#include "runtime/parallel_executor.hpp"
#include "runtime/pipeline.hpp"       // linear pipelines (§5)
#include "runtime/program.hpp"        // TaskContext / TaskBody
#include "runtime/serial_executor.hpp"
#include "runtime/shared_array.hpp"   // instrumented array (block shadow)
#include "runtime/spawn_sync.hpp"     // Cilk-style sugar (§2.1, eq. 11)
#include "runtime/trace.hpp"          // traces & task graphs (Theorem 6)
#include "runtime/trace_io.hpp"       // text (de)serialization of traces
#include "io/binary_format.hpp"       // R2DT binary wire format constants
#include "io/varint.hpp"              // canonical LEB128 + zigzag codecs
#include "io/binary_writer.hpp"       // streaming binary trace encoder
#include "io/binary_reader.hpp"       // streaming binary trace decoder
#include "io/text_reader.hpp"         // line-streaming text trace reader
#include "service/protocol.hpp"       // detection-service wire protocol
#include "service/session.hpp"        // one streamed detection session
#include "service/service.hpp"        // multi-session detection service
#include "service/snapshot.hpp"       // session snapshot/restore blobs
#include "service/worker_pool.hpp"    // sharded multi-core worker pool
#include "service/server.hpp"         // pipe / epoll-socket frame loops
#include "static/skeleton.hpp"        // symbolic program skeletons (IR)
#include "static/concretize.hpp"      // skeleton × config → concrete trace
#include "static/discipline.hpp"      // static Figure-9 discipline verifier
#include "static/mhp.hpp"             // symbolic may-happen-in-parallel
#include "static/race_scan.hpp"       // static races w/ concretized witnesses
#include "static/skeleton_text.hpp"   // text (de)serialization of skeletons
#include "static/skeleton_fuzz.hpp"   // seeded random skeletons
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"
#include "unionfind/labeled_union_find.hpp"
#include "unionfind/union_find.hpp"
#include "verify/certificate.hpp"     // certifying race reports (witness pairs)
#include "verify/diagnostics.hpp"     // stable lint codes & structured errors
#include "verify/graph_lint.hpp"      // diagram / traversal order linting
#include "verify/trace_lint.hpp"      // §5 line-discipline trace linter
#include "workloads/generators.hpp"   // random structured programs
#include "workloads/kernels.hpp"      // fib / LCS wavefront / staged pipeline
#include "fuzz/fuzz_plan.hpp"         // seeded fuzz plans (one uint64 = one run)
#include "fuzz/trace_gen.hpp"         // structured trace generators
#include "fuzz/mutate.hpp"            // type-aware trace mutations
#include "fuzz/differential.hpp"      // cross-detector differential panel
#include "fuzz/shrink.hpp"            // ddmin shrinker + trace repair
#include "fuzz/corpus.hpp"            // regression corpus replay
#include "fuzz/fuzz_driver.hpp"       // the campaign loop (race2d_fuzz CLI)

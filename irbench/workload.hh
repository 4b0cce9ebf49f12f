/**
 * @file
 * The three benchmark workloads behind one interface.
 *
 * A workload's inputs are generated once from --seed; each pass then
 * makes the same program calls on them, so passes of one run repeat
 * the same work and the driver can report medians over passes.
 */

#ifndef IRBENCH_WORKLOAD_HH
#define IRBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hh"

namespace irbench
{

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Untimed work before each pass (clearing caches, old output). */
    virtual void prepare() {}

    /** One full pass over the workload's inputs. */
    virtual void run(Tracer &t) = 0;

    /**
     * Oracle checks on the last pass's outputs. Each check counts as
     * one operation; a failure makes the run incorrect.
     */
    virtual void check(Checks &c) = 0;

    /** Per-job accounting of the last pass (sweep jobs). */
    virtual void countJobs(Checks &) {}

    /** Numbers that identify the last pass's outputs. */
    virtual std::vector<double> digest() const = 0;

    /** Largest digest difference between passes still equal. */
    virtual double digestTolerance() const { return 0.0; }

    /**
     * Per-layer metrics the workload derives itself (throughputs,
     * job quantiles) from the last pass. The map already holds the
     * pass's span-timed and registry metrics.
     */
    virtual void layerMetrics(MetricMap &) const {}
};

std::unique_ptr<Workload> makeDtmReplay(std::uint64_t seed);
std::unique_ptr<Workload> makePackageTransients(std::uint64_t seed);
/** @p workers: sweep runner workers. */
std::unique_ptr<Workload> makeSweepBatch(std::uint64_t seed,
                                         std::size_t workers,
                                         const std::string &workDir);

} // namespace irbench

#endif // IRBENCH_WORKLOAD_HH

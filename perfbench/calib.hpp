/**
 * @file
 * Host-speed calibration for the timed metrics.
 *
 * On a shared host other tenants slow this process down, by 20-50% for
 * seconds at a time and by as much again over tens of minutes; process
 * CPU time drifts with wall time, so it is no cure. The benchmark
 * therefore brackets every timed segment (requests of a pass, one
 * set-up) with a fixed calibration loop that shares no code with the
 * simulator, and scales the segment by (kReferenceS / loop time) to the
 * power kElasticity, the loop time being the mean of the loops on either
 * side of it. The scaled time reads as seconds on a host running at the
 * reference speed; a change to the simulator moves it exactly as it
 * moves wall time.
 */

#pragma once

#include <vector>

namespace perfbench {

/** Time of one calibration loop on an unloaded host of the stamped
 *  kind; only the scale of the scaled times depends on it. */
constexpr double kReferenceS = 0.0018;

/** How much more the simulator slows down than the calibration loop
 *  under the same load, as an exponent. Measured twice, 300 samples
 *  each, over 4-10 s windows on a shared 4-vCPU Xeon (KVM): the log-log
 *  slope of request time on loop time was 1.25-1.57 across a cycle GCN,
 *  churn, BFS and PerfModel request. */
constexpr double kElasticity = 1.4;

/** mark() starts a new segment only after this long, which bounds the
 *  calibration overhead when requests are short. */
constexpr double kMinSegmentS = 0.1;

/**
 * Seconds of one fixed calibration loop: the geometric mean of three
 * timed loops of dependent random read-modify-writes with
 * data-dependent branches, over tables that fit L1 (8 KiB), L2
 * (128 KiB) and the last-level cache (2 MiB). In the measurement above,
 * scaling by it cut the standard deviation of log request time over
 * those windows from 11-14% to 3-5%.
 */
double calibrationLoopS();

/**
 * Times consecutive segments, running the calibration loop before the
 * first, between any two (split) and after the last. Calibration time
 * is in neither figure.
 */
class CalibratedClock
{
  public:
    void start();
    /** End the current segment and begin the next. */
    void split();
    /** A request boundary: split() once the current segment has run
     *  kMinSegmentS; a no-op when the clock is not running. */
    void mark();
    void stop();

    /** The segments' wall times, and their sum. */
    const std::vector<double> &segmentsS() const { return segS_; }
    double wallS() const;
    /** Sum of the segments' times, each scaled to the reference speed
     *  by the mean of the loops on either side of it. */
    double scaledS() const;
    /** Each segment's time scaled by the median loop since start():
     *  for segments too short to outweigh one loop's own jitter. */
    std::vector<double> segmentsAtMedianS() const;
    /** Median calibration loop since start(). */
    double medianLoopS() const;

  private:
    void calibrate();

    bool running_ = false;
    double segStartUs_ = 0.0;
    std::vector<double> segS_;  ///< segment wall times
    std::vector<double> calS_;  ///< loop times: before, between, after
};

/** The clock around the current pass or set-up round. Workloads call
 *  passClock().mark() between requests. */
CalibratedClock &passClock();

} // namespace perfbench

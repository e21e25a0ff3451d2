#include "accel/gcn_accel.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "sim/factories.hpp"
#include "sim/session.hpp"

namespace awb {

Cycle
pipelineCycles(const std::vector<Cycle> &stage1,
               const std::vector<Cycle> &stage2)
{
    return pipelineCyclesMulti({&stage1, &stage2});
}

Cycle
pipelineCyclesMulti(const std::vector<const std::vector<Cycle> *> &stages)
{
    if (stages.empty()) return 0;
    const std::size_t rounds = stages.front()->size();
    for (const auto *s : stages) {
        if (s->size() != rounds)
            panic("pipelineCyclesMulti: stage round counts differ");
    }
    // end[s] = completion time of the column most recently finished by
    // stage s; column k of stage s starts at max(end[s-1], end[s]).
    std::vector<Cycle> end(stages.size(), 0);
    for (std::size_t k = 0; k < rounds; ++k) {
        for (std::size_t s = 0; s < stages.size(); ++s) {
            Cycle ready = s == 0 ? end[0] : std::max(end[s - 1], end[s]);
            end[s] = ready + (*stages[s])[k];
        }
    }
    return end.back();
}

GcnRunResult
runGcn(const AccelConfig &cfg, const Dataset &ds, const GcnModel &model)
{
    // Compose the GCN as a workload graph and let the Session schedule
    // it: the adjacency row map is carried across layers automatically
    // (auto-tuning work done in layer 1 keeps paying off in layer 2),
    // and each layer's chained SPMMs are column-pipelined (Fig. 8).
    sim::WorkloadBundle bundle = sim::buildGcn(ds, model);
    sim::Session session(cfg);
    sim::SessionResult sres = sim::runWorkload(session, std::move(bundle));

    GcnRunResult res;
    res.output = std::move(sres.output);
    res.totalCycles = sres.totalCycles;
    res.totalCyclesSerial = sres.totalCyclesSerial;
    res.totalTasks = sres.totalTasks;
    res.utilization = sres.utilization;
    res.scaleout = sres.scaleout;

    // Map the flat schedule-order stats back onto the historical
    // per-layer layout: each layer contributed XW, A(XW), then
    // adjHops-1 extra hop SPMMs, and formed exactly one pipelined chain.
    const auto layers = static_cast<std::size_t>(model.layers());
    if (sres.chains.size() != layers ||
        sres.nodeStats.size() !=
            layers * (1 + static_cast<std::size_t>(model.adjHops)))
        panic("runGcn: Session schedule no longer matches the per-layer "
              "GCN layout");
    std::size_t next = 0;
    for (Index l = 0; l < model.layers(); ++l) {
        GcnLayerResult layer;
        layer.xw = std::move(sres.nodeStats[next++]);
        layer.ax = std::move(sres.nodeStats[next++]);
        for (Index h = 1; h < model.adjHops; ++h)
            layer.extraHops.push_back(std::move(sres.nodeStats[next++]));
        layer.pipelinedCycles =
            sres.chains[static_cast<std::size_t>(l)].pipelinedCycles;
        res.layers.push_back(std::move(layer));
    }
    return res;
}

} // namespace awb

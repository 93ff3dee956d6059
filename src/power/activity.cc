#include "power/activity.hh"

#include <algorithm>

#include "common/log.hh"

namespace synchro::power
{

ActivityReport
collectActivity(const arch::Chip &chip)
{
    ActivityReport report;
    for (unsigned c = 0; c < chip.numColumns(); ++c) {
        const arch::Column &col = chip.column(c);
        const auto &st = col.controller().stats();
        ColumnActivity act;
        act.column = c;
        for (unsigned t = 0; t < col.numTiles(); ++t) {
            if (col.tileActive(t))
                ++act.active_tiles;
        }
        act.compute_slots = st.value("issued");
        act.branch_stalls = st.value("branchStalls");
        act.comm_stall_slots = st.value("commStalls");
        act.zorm_nops = st.value("zormNops");
        act.issue_slots = act.compute_slots + act.branch_stalls +
                          act.comm_stall_slots + act.zorm_nops;
        act.utilization =
            act.issue_slots
                ? double(act.compute_slots) / double(act.issue_slots)
                : 0.0;
        report.columns.push_back(act);
    }
    report.bus_transfers = chip.fabric().transfers();
    report.wire_span_sum = chip.fabric().wireSpanSum();
    return report;
}

namespace
{

/** Measured bus power of one activity report over @p seconds at
 *  supply @p v. */
double
measuredBusMw(const ActivityReport &act, unsigned columns,
              double seconds, double v,
              const SystemPowerModel &model)
{
    unsigned nodes = columns * 4 + 1;
    double span = act.bus_transfers
                      ? act.meanSpanFraction(nodes)
                      : 0.0;
    double transfers_per_s = double(act.bus_transfers) / seconds;
    return model.busModel().powerMw(transfers_per_s, 32,
                                    v > 0 ? v : 1.0,
                                    std::max(span, 1e-9));
}

/** Per-column loads of a measured run (f from slots/sample). */
std::vector<DomainLoad>
measuredLoads(const ActivityReport &act, double seconds,
              const SupplyLevels &levels)
{
    std::vector<DomainLoad> loads;
    for (const auto &col : act.columns) {
        if (col.issue_slots == 0 || col.active_tiles == 0)
            continue; // supply-gated column
        double f_mhz =
            double(col.issue_slots) / seconds / 1e6;
        double v = levels.voltageFor(f_mhz);
        loads.push_back(DomainLoad{strprintf("column%u", col.column),
                                   col.active_tiles, f_mhz, v, 0.0});
    }
    return loads;
}

} // namespace

MeasuredComparison
priceSimulationComparison(const arch::Chip &chip, uint64_t samples,
                          double sample_rate_hz,
                          const SupplyLevels &levels,
                          const SystemPowerModel &model)
{
    if (samples == 0)
        fatal("priceSimulation: zero samples");
    // The whole run is one epoch: its weight is exactly 1.0, so the
    // time-weighted sums reduce to the plain per-column sums.
    return priceActivityEpochs(
        {{collectActivity(chip), double(samples) / sample_rate_hz}},
        chip.numColumns(), levels, model);
}

MeasuredComparison
priceActivityEpochs(const std::vector<ActivityEpoch> &epochs,
                    unsigned columns, const SupplyLevels &levels,
                    const SystemPowerModel &model)
{
    double total_seconds = 0;
    for (const ActivityEpoch &ep : epochs)
        total_seconds += ep.seconds;
    if (epochs.empty() || total_seconds <= 0)
        fatal("priceActivityEpochs: no timed epochs to price");

    // Per-epoch loads first: the global vmax (the single supply a
    // single-V chip would need for the whole run) is only known once
    // every epoch's own operating point has been derived.
    std::vector<std::vector<DomainLoad>> epoch_loads;
    MeasuredComparison cmp;
    for (const ActivityEpoch &ep : epochs) {
        epoch_loads.push_back(
            measuredLoads(ep.activity, ep.seconds, levels));
        for (const DomainLoad &load : epoch_loads.back())
            cmp.vmax = std::max(cmp.vmax, load.v);
    }

    // Time-weighted sum: each epoch priced at its own V/f point
    // (multi-V) and re-priced at the global vmax (single-V), both
    // weighted by the share of wall time the epoch covers.
    for (size_t e = 0; e < epochs.size(); ++e) {
        double w = epochs[e].seconds / total_seconds;
        PowerBreakdown multi, single;
        for (const DomainLoad &load : epoch_loads[e]) {
            PowerBreakdown p = model.loadPower(load);
            multi.tile_mw += p.tile_mw;
            multi.leak_mw += p.leak_mw;
            PowerBreakdown s =
                model.loadPower(model.atVoltage(load, cmp.vmax));
            single.tile_mw += s.tile_mw;
            single.leak_mw += s.leak_mw;
        }
        // Bus power from measured transfers and spans at the global
        // vmax (the buffers adapt tile voltages to the bus), the
        // same in both columns: the bus always runs at the top
        // supply, as in the paper.
        double bus = measuredBusMw(epochs[e].activity, columns,
                                   epochs[e].seconds, cmp.vmax,
                                   model);
        cmp.multi_v.tile_mw += w * multi.tile_mw;
        cmp.multi_v.leak_mw += w * multi.leak_mw;
        cmp.multi_v.bus_mw += w * bus;
        cmp.single_v.tile_mw += w * single.tile_mw;
        cmp.single_v.leak_mw += w * single.leak_mw;
        cmp.single_v.bus_mw += w * bus;

        // Keep the last epoch's loads as the representative set (the
        // callers that inspect loads want "where did the run end up").
        if (e + 1 == epochs.size())
            cmp.loads = epoch_loads[e];
    }
    return cmp;
}

} // namespace synchro::power

// Output checks for every benchmark cell.
//
// Reference-free (every seed): the run drains, jobs are conserved (each job
// the source delivered completes exactly once) and every job satisfies the
// §5 identity t_exe = t_cpu + t_page + t_que + t_mig to 1e-9 relative.
// At the default seed the report aggregates must also match the committed
// reference file to 1e-9 relative.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics/report.h"

namespace perfbench {

/// The aggregates the reference file pins, in file column order.
inline constexpr const char* kReferenceFields[] = {"makespan", "t_exe", "t_cpu", "t_page",
                                                   "t_que",    "t_mig", "avg_slowdown"};
inline constexpr std::size_t kReferenceFieldCount = 7;

std::vector<double> reference_aggregates(const vrc::metrics::RunReport& report);

/// Reference aggregates per "<workload> <cell label>" key.
using Reference = std::map<std::string, std::vector<double>>;

/// Parses the reference file; throws std::runtime_error on a malformed line.
Reference load_reference(const std::string& path);

/// One reference line for `report`: key then the aggregates at full
/// precision.
std::string reference_line(const std::string& key, const vrc::metrics::RunReport& report);

/// Problems found in one cell's report; empty when the cell passes.
/// `reference` is null at non-default seeds.
std::vector<std::string> check_cell(const vrc::metrics::RunReport& report,
                                    std::size_t expected_jobs,
                                    const std::vector<double>* reference);

/// FNV-1a over every field of the report, every job record included, by bit
/// pattern: equal fingerprints mean bit-identical reports.
std::uint64_t fingerprint(const vrc::metrics::RunReport& report);

}  // namespace perfbench

#include "bench_json.hpp"

#include <fstream>
#include <iomanip>

namespace bench {

bool writeKernelJson(const std::string& path,
                     const std::vector<KernelRecord>& records) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const KernelRecord& r = records[i];
    out << "  {\"kernel\": \"" << r.kernel << "\", \"dof\": " << r.dof
        << ", \"k\": " << r.k << ", \"ns_per_op\": " << std::setprecision(6)
        << std::fixed << r.ns_per_op;
    if (!r.note.empty()) out << ", \"note\": \"" << r.note << "\"";
    out << "}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return out.good();
}

}  // namespace bench

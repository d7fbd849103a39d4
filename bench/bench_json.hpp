// Machine-readable kernel-bench output: the writer behind batch_fk's
// --json, which emits BENCH_kernels.json as an array of
// {"kernel", "dof", "k", "ns_per_op"} records.
#pragma once

#include <string>
#include <vector>

namespace bench {

/// One measured kernel configuration.
struct KernelRecord {
  std::string kernel;   ///< kernel name, e.g. "speculation_batched"
  int dof = 0;          ///< chain degrees of freedom (0 = n/a)
  int k = 0;            ///< speculation/batch count (0 = n/a)
  double ns_per_op = 0.0;  ///< nanoseconds per operation
  /// Optional free-form annotation (e.g. the active speculation
  /// backend for a dispatched measurement); omitted from the JSON when
  /// empty so pre-existing records render unchanged.
  std::string note;
};

/// Write `records` to `path` as pretty-printed JSON.  Returns false if
/// the file cannot be written.
bool writeKernelJson(const std::string& path,
                     const std::vector<KernelRecord>& records);

}  // namespace bench

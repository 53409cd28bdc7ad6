#ifndef REACH_TESTS_SNAPSHOT_FILES_H_
#define REACH_TESTS_SNAPSHOT_FILES_H_

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/serialize.h"
#include "core/two_hop_core.h"
#include "plain/pruned_two_hop.h"

namespace reach {

/// Writes `index`'s snapshot to `path` without the build-price section,
/// as a writer that predates that section laid it out: a service started
/// from it has build price 0, so its first damaging delete asks for a
/// full build.
inline void SaveSnapshotWithoutBuildPrice(const PrunedTwoHop& index,
                                          const std::string& path) {
  std::ostringstream full;
  ASSERT_TRUE(index.SaveSnapshot(full));
  const std::string bytes = full.str();
  SnapshotView view;
  ASSERT_TRUE(view.Parse(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size(), "pll"));
  ASSERT_TRUE(view.Has(two_hop_snapshot::kBuildPrice));
  SnapshotWriter writer("pll");
  for (uint32_t kind = 1; kind < 64; ++kind) {
    if (kind == two_hop_snapshot::kBuildPrice || !view.Has(kind)) continue;
    const std::span<const uint8_t> section = view.Section(kind);
    writer.AddSection(kind, section.data(), section.size());
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(writer.WriteTo(out));
  out.close();
  ASSERT_TRUE(out);
}

}  // namespace reach

#endif  // REACH_TESTS_SNAPSHOT_FILES_H_

// Folds a resident scan snapshot into a core::Pipeline through its one
// ingest path — BeginScan, ObserveDer per observation, EndScan — failing
// the test on any rejected observation.
#pragma once

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "scan/scanner.h"

namespace rev {

inline void IngestSnapshot(core::Pipeline& pipeline,
                           const scan::CertScanSnapshot& snapshot) {
  pipeline.BeginScan(snapshot.time);
  for (const scan::CertObservation& obs : snapshot.observations)
    ASSERT_TRUE(pipeline.ObserveDer(obs.Der()).has_value())
        << "observation of ip " << obs.ip << " rejected";
  pipeline.EndScan();
}

}  // namespace rev

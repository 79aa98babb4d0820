// Umbrella header for the distributed runtime (paper §IV-B): portable
// binary serialisation, wire codecs for the pipeline messages (the model
// included), a simulated network fabric and the lane-block plan the
// distributed backend leases work by. A distributed run itself is
// the cwcsim::distributed backend (core/backend.hpp), driven through
// cwcsim::run / run_builder like every other deployment.
#pragma once

#include "dist/archive.hpp"
#include "dist/lane_blocks.hpp"
#include "dist/model_codec.hpp"
#include "dist/net_channel.hpp"
#include "dist/net_params.hpp"
#include "dist/wire.hpp"

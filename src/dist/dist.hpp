// Umbrella header for the distributed runtime (paper §IV-B): portable
// binary serialisation, wire codecs for the pipeline messages, a simulated
// network fabric, and the distributed simulator that runs the CWC pipeline
// across a virtual cluster of multicore hosts.
#pragma once

#include "dist/archive.hpp"
#include "dist/distributed_simulator.hpp"
#include "dist/model_codec.hpp"
#include "dist/net_channel.hpp"
#include "dist/net_params.hpp"
#include "dist/wire.hpp"

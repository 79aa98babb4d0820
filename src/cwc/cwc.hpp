// Umbrella header for the Calculus of Wrapped Compartments library:
// terms, rules, stochastic (SSA) and deterministic (ODE) engines, parser.
#pragma once

#include "cwc/batch/batch_engine.hpp"
#include "cwc/compiled_model.hpp"
#include "cwc/flat_gillespie.hpp"
#include "cwc/gillespie.hpp"
#include "cwc/model.hpp"
#include "cwc/model_file.hpp"
#include "cwc/multiset.hpp"
#include "cwc/ode.hpp"
#include "cwc/parser.hpp"
#include "cwc/rate_law.hpp"
#include "cwc/reaction_network.hpp"
#include "cwc/rule.hpp"
#include "cwc/species.hpp"
#include "cwc/term.hpp"

#ifndef PERFBENCH_REFS_H_
#define PERFBENCH_REFS_H_

/**
 * @file
 * Exact reference distributions for the executor workloads' correctness
 * check.  dm::dm_output_distribution costs close to a minute per 10-11 qubit
 * circuit, so references are computed once (perfbench/run.py --regen-refs)
 * and kept as text files under perfbench/refs/<noise>/<circuit>.txt:
 *
 *   # exact output distribution (dm::dm_output_distribution)
 *   circuit <name> qubits <n> gates <count> noise <noise>
 *   <p(0)>
 *   ...
 *   <p(2^n - 1)>
 *
 * The header line is checked on load, so a reference for a circuit whose
 * width or gate count changed is reported stale instead of compared.
 */

#include <string>
#include <vector>

#include "noise/noise_model.h"
#include "sim/circuit.h"

namespace perfbench {

/** <dir>/<noise>/<circuit name>.txt */
std::string reference_path(const std::string& dir, const std::string& noise,
                           const tqsim::sim::Circuit& circuit);

/**
 * Loads the reference of @p circuit under the model named @p noise.
 * Returns false and sets @p why when the file is missing, malformed or
 * stale.
 */
bool load_reference(const std::string& dir, const std::string& noise,
                    const tqsim::sim::Circuit& circuit,
                    std::vector<double>* probs, std::string* why);

/** Computes the exact distribution and writes it; returns false on I/O
 *  failure. */
bool write_reference(const std::string& dir, const std::string& noise,
                     const tqsim::sim::Circuit& circuit,
                     const tqsim::noise::NoiseModel& model);

}  // namespace perfbench

#endif  // PERFBENCH_REFS_H_

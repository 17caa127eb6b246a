#include "refs.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "dm/dm_simulator.h"

namespace perfbench {

namespace {

std::string
header_line(const std::string& noise, const tqsim::sim::Circuit& circuit)
{
    std::ostringstream os;
    os << "circuit " << circuit.name() << " qubits " << circuit.num_qubits()
       << " gates " << circuit.size() << " noise " << noise;
    return os.str();
}

}  // namespace

std::string
reference_path(const std::string& dir, const std::string& noise,
               const tqsim::sim::Circuit& circuit)
{
    return dir + "/" + noise + "/" + circuit.name() + ".txt";
}

bool
load_reference(const std::string& dir, const std::string& noise,
               const tqsim::sim::Circuit& circuit, std::vector<double>* probs,
               std::string* why)
{
    const std::string path = reference_path(dir, noise, circuit);
    std::ifstream in(path);
    if (!in) {
        *why = "missing reference " + path;
        return false;
    }
    std::string line;
    std::getline(in, line);  // comment
    std::getline(in, line);
    if (line != header_line(noise, circuit)) {
        *why = "stale reference " + path + " (header '" + line +
               "', want '" + header_line(noise, circuit) + "')";
        return false;
    }
    const std::size_t size = std::size_t{1} << circuit.num_qubits();
    probs->assign(size, 0.0);
    for (std::size_t i = 0; i < size; ++i) {
        if (!(in >> (*probs)[i])) {
            *why = "truncated reference " + path;
            return false;
        }
    }
    return true;
}

bool
write_reference(const std::string& dir, const std::string& noise,
                const tqsim::sim::Circuit& circuit,
                const tqsim::noise::NoiseModel& model)
{
    const std::vector<double> probs =
        tqsim::dm::dm_output_distribution(circuit, model).probabilities();
    const std::string path = reference_path(dir, noise, circuit);
    std::filesystem::create_directories(dir + "/" + noise);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fprintf(f, "# exact output distribution (dm::dm_output_distribution)\n"
                    "%s\n",
                 header_line(noise, circuit).c_str());
    // 12 significant digits: far below the statistical bound the check
    // applies, and a third of the size of full precision.
    for (const double p : probs) {
        std::fprintf(f, "%.12g\n", p);
    }
    return std::fclose(f) == 0;
}

}  // namespace perfbench

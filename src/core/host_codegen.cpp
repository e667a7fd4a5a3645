#include "core/host_codegen.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace clflow::core {

namespace {

std::string ActBuffer(graph::NodeId id) {
  return "act_" + std::to_string(id);
}

}  // namespace

std::string EmitHostProgram(const Deployment& d) {
  const graph::Graph& g = d.fused_graph();
  std::ostringstream os;

  os << "// Host program generated by clflow (paper SS5.2).\n"
     << "// Network: " << g.name() << ", board: " << d.options().board.name
     << ", mode: "
     << (d.options().mode == ExecutionMode::kPipelined ? "pipelined"
                                                       : "folded")
     << ", recipe: " << d.options().recipe.name << "\n"
     << "#include <CL/cl.h>\n"
     << "#include <cassert>\n"
     << "#include <cstdio>\n"
     << "#include <cstdlib>\n"
     << "#include <vector>\n\n"
     << "// Toggleable OpenCL event profiling (disables async concurrency,\n"
     << "// as profiling requires completed events).\n"
     << "#ifndef CLFLOW_PROFILE\n#define CLFLOW_PROFILE 0\n#endif\n\n"
     << "#define CL_OK(x) do { cl_int err_ = (x); \\\n"
     << "  if (err_ != CL_SUCCESS) { std::fprintf(stderr, \"%s failed: %d\\n\", #x, err_); std::exit(1); } } while (0)\n\n"
     << "extern std::vector<float> LoadParameters(const char* name);\n\n";

  os << "int main() {\n"
     << "  cl_platform_id platform; CL_OK(clGetPlatformIDs(1, &platform, nullptr));\n"
     << "  cl_device_id device; CL_OK(clGetDeviceIDs(platform, CL_DEVICE_TYPE_ACCELERATOR, 1, &device, nullptr));\n"
     << "  cl_int err;\n"
     << "  cl_context context = clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err); CL_OK(err);\n"
     << "  // Program the FPGA with the offline-compiled bitstream.\n"
     << "  std::vector<unsigned char> aocx; // load network.aocx\n"
     << "  // ... clCreateProgramWithBinary + clBuildProgram ...\n"
     << "  cl_program program = nullptr; (void)program;\n\n";

  // Command queues as Deployment::AssignQueues planned them (autorun
  // kernels get none).
  const bool ce = d.options().recipe.concurrent_execution &&
                  d.options().recipe.channels;
  if (ce) {
    os << "  // Concurrent execution (SS4.8): a command queue per kernel.\n";
  } else {
    os << "  // Single in-order command queue.\n";
  }
  const std::vector<int>& queue_of = d.invocation_queues();
  int queues = 1;
  for (const int q : queue_of) queues = std::max(queues, q + 1);
  for (int q = 0; q < queues; ++q) {
    os << "  cl_command_queue q" << q
       << " = clCreateCommandQueue(context, device, "
          "CL_QUEUE_PROFILING_ENABLE * CLFLOW_PROFILE, &err); CL_OK(err);\n";
  }

  os << "\n  // Kernel objects (one per synthesized kernel; parameterized\n"
     << "  // kernels are re-used across layers, SS4.9).\n";
  for (const auto& pk : d.kernels()) {
    if (pk.built.kernel.autorun) {
      os << "  // " << pk.built.kernel.name
         << ": autorun, no host object needed (SS4.7)\n";
      continue;
    }
    os << "  cl_kernel " << pk.built.kernel.name
       << " = clCreateKernel(program, \"" << pk.built.kernel.name
       << "\", &err); CL_OK(err);\n";
  }

  // Buffers: network input/output, per-edge activations (folded mode),
  // weights/biases/workspaces per node.
  os << "\n  // Device buffers.\n";
  const Shape& in_shape = g.node(g.input_id()).output_shape;
  os << "  cl_mem " << ActBuffer(g.input_id())
     << " = clCreateBuffer(context, CL_MEM_READ_ONLY, "
     << in_shape.NumElements() * 4 << ", nullptr, &err); CL_OK(err);\n";
  for (const auto& inv : d.invocations()) {
    const auto& n = g.node(inv.node);
    const auto& pk = d.kernels()[static_cast<std::size_t>(inv.kernel_index)];
    if (pk.built.output) {
      os << "  cl_mem " << ActBuffer(n.id)
         << " = clCreateBuffer(context, CL_MEM_READ_WRITE, "
         << n.output_shape.NumElements() * 4 << ", nullptr, &err); CL_OK(err);\n";
    }
    if (pk.built.weights && n.weights.defined()) {
      os << "  cl_mem w_" << n.id << " = clCreateBuffer(context, "
         << "CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR, "
         << n.weights.size() * 4 << ", LoadParameters(\"" << n.name
         << ".w\").data(), &err); CL_OK(err);\n";
    }
    if (pk.built.bias && n.bias.defined()) {
      os << "  cl_mem b_" << n.id << " = clCreateBuffer(context, "
         << "CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR, " << n.bias.size() * 4
         << ", LoadParameters(\"" << n.name << ".b\").data(), &err); CL_OK(err);\n";
    }
    for (std::size_t w = 0; w < pk.built.workspaces.size(); ++w) {
      os << "  cl_mem ws_" << n.id << "_" << w
         << " = clCreateBuffer(context, CL_MEM_READ_WRITE, "
         << n.output_shape.NumElements() * 4 << ", nullptr, &err); CL_OK(err);\n";
    }
  }

  os << "\n  // One forward pass.\n"
     << "  std::vector<float> input(" << in_shape.NumElements() << ");\n"
     << "  CL_OK(clEnqueueWriteBuffer(q0, " << ActBuffer(g.input_id())
     << ", CL_FALSE, 0, input.size() * 4, input.data(), 0, nullptr, nullptr));\n\n";

  int last_queue = 0;
  for (std::size_t i = 0; i < d.invocations().size(); ++i) {
    const auto& inv = d.invocations()[i];
    const auto& pk = d.kernels()[static_cast<std::size_t>(inv.kernel_index)];
    const auto& kern = pk.built.kernel;
    const auto& n = g.node(inv.node);
    os << "  // layer " << n.name << " -> kernel " << kern.name << "\n";
    if (kern.autorun) {
      os << "  // autorun: consumes/produces channels without dispatch\n";
      continue;
    }
    int arg = 0;
    auto set_mem = [&](const std::string& buf) {
      os << "  CL_OK(clSetKernelArg(" << kern.name << ", " << arg++
         << ", sizeof(cl_mem), &" << buf << "));\n";
    };
    for (const auto& b : kern.buffer_args) {
      if (b == pk.built.input) {
        set_mem(ActBuffer(n.inputs[0]));
      } else if (pk.built.input2 && b == pk.built.input2) {
        set_mem(ActBuffer(n.inputs[1]));
      } else if (b == pk.built.weights) {
        set_mem("w_" + std::to_string(n.id));
      } else if (b == pk.built.bias) {
        set_mem("b_" + std::to_string(n.id));
      } else if (b == pk.built.output) {
        set_mem(ActBuffer(n.id));
      } else {
        // workspace
        std::size_t w = 0;
        for (; w < pk.built.workspaces.size(); ++w) {
          if (pk.built.workspaces[w] == b) break;
        }
        set_mem("ws_" + std::to_string(n.id) + "_" + std::to_string(w));
      }
    }
    // Symbolic shape / stride / activation arguments (SS5.3).
    for (const auto& v : kern.scalar_args) {
      auto it = inv.bindings.find(v.get());
      CLFLOW_CHECK_MSG(it != inv.bindings.end(),
                       "unbound scalar argument " + v->name);
      os << "  { cl_int v = " << it->second << "; CL_OK(clSetKernelArg("
         << kern.name << ", " << arg++ << ", sizeof(cl_int), &v)); } // "
         << v->name << "\n";
    }
    last_queue = queue_of[i];
    os << "  CL_OK(clEnqueueTask(q" << last_queue << ", " << kern.name
       << ", 0, nullptr, nullptr));\n";
  }

  const graph::NodeId out_id = g.output_id();
  os << "\n  std::vector<float> output("
     << g.node(out_id).output_shape.NumElements() << ");\n"
     << "  CL_OK(clEnqueueReadBuffer(q" << last_queue << ", "
     << ActBuffer(out_id)
     << ", CL_TRUE, 0, output.size() * 4, output.data(), 0, nullptr, "
        "nullptr));\n"
     << "  std::printf(\"done\\n\");\n"
     << "  return 0;\n"
     << "}\n";
  return os.str();
}

}  // namespace clflow::core

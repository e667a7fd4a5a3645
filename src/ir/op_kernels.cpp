#include "ir/op_kernels.hpp"

#include <functional>

#include "common/error.hpp"
#include "ir/passes.hpp"

namespace clflow::ir {

namespace {

Expr ActExpr(Activation act, Expr v) {
  switch (act) {
    case Activation::kNone:
      return v;
    case Activation::kRelu:
      return Max(std::move(v), FloatImm(0.0));
    case Activation::kRelu6:
      return Min(Max(std::move(v), FloatImm(0.0)), FloatImm(6.0));
  }
  return v;
}

/// Runtime-selected activation for parameterized kernels: act_sel is an
/// int kernel argument (0 = none, 1 = relu, 2 = relu6), so one symbolic
/// kernel serves layers that differ only in their fused activation.
Expr ParamActExpr(const VarPtr& act_sel, Expr v) {
  Expr relu = Max(v, FloatImm(0.0));
  Expr relu6 = Min(relu, FloatImm(6.0));
  Expr with_relu =
      Select(Binary(BinOp::kGe, VarRef(act_sel), IntImm(1)), relu, v);
  return Select(Binary(BinOp::kEq, VarRef(act_sel), IntImm(2)), relu6,
                with_relu);
}

/// A tiled dimension: extent-1 tiles need no loop; the index collapses to 0.
struct VecDim {
  VarPtr var;      // null when extent == 1
  Expr idx;        // VarRef(var) or IntImm(0)
  std::int64_t extent = 1;
};

VecDim MakeVec(const std::string& name, std::int64_t extent) {
  VecDim d;
  d.extent = extent;
  if (extent > 1) {
    d.var = MakeVar(name);
    d.idx = VarRef(d.var);
  } else {
    d.idx = IntImm(0);
  }
  return d;
}

Stmt WrapVec(const VecDim& d, Stmt body) {
  if (!d.var) return body;
  ForAnnotation ann;
  ann.vectorized = true;
  ann.unroll = -1;
  return For(d.var, IntImm(0), IntImm(d.extent), std::move(body), ann);
}

/// Declares per-dimension symbolic stride variables for a buffer and
/// registers them as kernel scalar arguments + named params.
void AddSymbolicStrides(BufferPtr& buffer, Kernel& kernel,
                        std::unordered_map<std::string, VarPtr>& params) {
  buffer->strides.clear();
  for (std::size_t d = 0; d < buffer->shape.size(); ++d) {
    VarPtr sv = MakeVar(buffer->name + "_s" + std::to_string(d),
                        VarKind::kShapeParam);
    buffer->strides.push_back(VarRef(sv));
    kernel.scalar_args.push_back(sv);
    params[sv->name] = sv;
  }
}

/// Emits nested loops that fill a local buffer from either a channel (in
/// element order) or a global source buffer.
Stmt FillLocal(const BufferPtr& local, const BufferPtr& channel,
               const BufferPtr& global_src, std::vector<VarPtr>* fill_vars) {
  std::vector<VarPtr> vars;
  std::vector<Expr> idx;
  for (std::size_t d = 0; d < local->shape.size(); ++d) {
    std::string name(1, 'f');
    name += std::to_string(d);
    vars.push_back(MakeVar(std::move(name)));
    idx.push_back(VarRef(vars.back()));
  }
  Expr value = channel ? ReadChannel(channel) : ir::Load(global_src, idx);
  Stmt body = Store(local, idx, std::move(value));
  for (std::size_t d = local->shape.size(); d-- > 0;) {
    body = For(vars[d], IntImm(0), local->shape[d], std::move(body));
  }
  if (fill_vars) *fill_vars = std::move(vars);
  return body;
}

}  // namespace

// ---------------------------------------------------------------------------
// Convolution

BuiltKernel BuildConv2dKernel(const ConvSpec& spec, const ConvSchedule& sched,
                              const std::string& name, const ChannelIO& io) {
  CLFLOW_CHECK_MSG(!sched.fuse_activation || sched.cached_writes,
                   "fused activation requires cached writes (the private "
                   "accumulator is what removes the scratchpad dependence)");
  CLFLOW_CHECK_MSG(!spec.depthwise || (sched.tile_c1 == 1 && sched.tile_c2 == 1),
                   "depthwise convolutions tile only W2");
  CLFLOW_CHECK_MSG(!io.output || (sched.tile_c2 == 1 && sched.tile_w2 == 1),
                   "channel output requires scalar writeback");
  CLFLOW_CHECK_MSG(!sched.symbolic || (!io.input && !io.output),
                   "parameterized kernels use global-memory I/O (SS4.11)");
  CLFLOW_CHECK_MSG(!io.input || !sched.symbolic, "channel input is constant-shape");

  BuiltKernel bk;
  Kernel& kn = bk.kernel;
  kn.name = name;

  const std::int64_t f = spec.f;
  const std::int64_t s = spec.stride;

  // Dimension expressions.
  Expr c1e, h1e, ke;
  if (sched.symbolic) {
    VarPtr rc = MakeVar("rc_dim", VarKind::kShapeParam);
    VarPtr xx = MakeVar("xx_dim", VarKind::kShapeParam);
    c1e = VarRef(rc);
    h1e = VarRef(xx);
    kn.scalar_args.push_back(rc);
    kn.scalar_args.push_back(xx);
    bk.params["C1"] = rc;
    bk.params["HW"] = xx;
    if (spec.depthwise) {
      ke = c1e;
    } else {
      VarPtr ff = MakeVar("ff_dim", VarKind::kShapeParam);
      ke = VarRef(ff);
      kn.scalar_args.push_back(ff);
      bk.params["K"] = ff;
    }
  } else {
    CLFLOW_CHECK_MSG(spec.h1 == spec.w1,
                     "builders assume square feature maps");
    c1e = IntImm(spec.c1);
    h1e = IntImm(spec.h1);
    ke = IntImm(spec.depthwise ? spec.c1 : spec.k);
  }
  const Expr w1e = h1e;
  // Output spatial extent, P = 0 inside the kernel: (H1 - F)/S + 1.
  const Expr h2e =
      Simplify(Add(Div(Sub(h1e, IntImm(f)), IntImm(s)), IntImm(1)));
  const Expr w2e = h2e;

  // Parameterized kernels select their fused activation at runtime so one
  // kernel serves layers that differ only in activation.
  VarPtr act_sel;
  if (sched.symbolic) {
    act_sel = MakeVar("act_sel", VarKind::kShapeParam);
    kn.scalar_args.push_back(act_sel);
    bk.params["ACT"] = act_sel;
  }
  auto apply_act = [&](Expr v) {
    return act_sel ? ParamActExpr(act_sel, std::move(v))
                   : ActExpr(spec.activation, std::move(v));
  };

  // Buffers.
  BufferPtr input_global, i_local;
  if (io.input) {
    i_local = MakeBuffer(name + "_ifm", {c1e, h1e, w1e}, MemScope::kLocal);
    kn.local_buffers.push_back(i_local);
    kn.channels_read.push_back(io.input);
  } else {
    input_global = MakeBuffer("in_fm", {c1e, h1e, w1e}, MemScope::kGlobal,
                              /*is_arg=*/true);
    kn.buffer_args.push_back(input_global);
    bk.input = input_global;
  }

  // Pointwise convolutions use 2-D weights [K][C1], exactly as TVM's
  // Listing 5.4 does -- this is what lets the innermost (input channel)
  // stride pin to 1 and the rci-unrolled weight reads coalesce.
  BufferPtr weights;
  if (spec.depthwise) {
    weights = MakeBuffer("wt", {c1e, IntImm(f), IntImm(f)},
                         MemScope::kGlobal, true);
  } else if (f == 1) {
    weights = MakeBuffer("wt", {ke, c1e}, MemScope::kGlobal, true);
  } else {
    weights = MakeBuffer("wt", {ke, c1e, IntImm(f), IntImm(f)},
                         MemScope::kGlobal, true);
  }
  kn.buffer_args.push_back(weights);
  bk.weights = weights;

  BufferPtr bias;
  if (spec.has_bias) {
    bias = MakeBuffer("bias", {ke}, MemScope::kGlobal, true);
    kn.buffer_args.push_back(bias);
    bk.bias = bias;
  }

  BufferPtr output_global;
  if (io.output) {
    kn.channels_written.push_back(io.output);
  } else {
    output_global =
        MakeBuffer("out_fm", {ke, h2e, w2e}, MemScope::kGlobal, true);
    kn.buffer_args.push_back(output_global);
    bk.output = output_global;
  }

  if (sched.symbolic) {
    if (input_global) AddSymbolicStrides(input_global, kn, bk.params);
    AddSymbolicStrides(weights, kn, bk.params);
    if (output_global) AddSymbolicStrides(output_global, kn, bk.params);
  }

  // Weight cache (optimized small-network schedules).
  BufferPtr w_src = weights;
  Stmt weight_fill;
  if (sched.weight_cache) {
    CLFLOW_CHECK_MSG(!sched.symbolic, "weight cache needs constant shapes");
    BufferPtr w_local =
        MakeBuffer(name + "_wcache", weights->shape, MemScope::kLocal);
    kn.local_buffers.push_back(w_local);
    weight_fill = FillLocal(w_local, nullptr, weights, nullptr);
    w_src = w_local;
  }

  const BufferPtr in_src = i_local ? i_local : input_global;
  auto LoadIn = [&](Expr c, Expr h, Expr w) {
    return ir::Load(in_src, {std::move(c), std::move(h), std::move(w)});
  };
  auto LoadWt = [&](Expr oc, Expr ic, Expr fy, Expr fx) {
    if (spec.depthwise) {
      return ir::Load(w_src, {std::move(oc), std::move(fy), std::move(fx)});
    }
    if (f == 1) {
      return ir::Load(w_src, {std::move(oc), std::move(ic)});
    }
    return ir::Load(
        w_src, {std::move(oc), std::move(ic), std::move(fy), std::move(fx)});
  };

  std::vector<Stmt> top;
  if (io.input) {
    top.push_back(FillLocal(i_local, io.input, nullptr, nullptr));
  }
  if (weight_fill) top.push_back(weight_fill);

  if (!sched.fuse_activation) {
    // ---- Naive TVM schedule (Listing 5.1): global scratchpad, separate
    // writeback loop. Optional filter unroll (Quartus auto-unrolls small
    // trip counts on some versions, SS6.3.1 footnote).
    CLFLOW_CHECK_MSG(!sched.cached_writes && sched.tile_c1 == 1 &&
                         sched.tile_w2 == 1 && sched.tile_c2 == 1,
                     "naive schedule supports only filter unrolling");
    BufferPtr ws = MakeBuffer("scratchpad", {h2e, w2e}, MemScope::kGlobal,
                              /*is_arg=*/true);
    kn.buffer_args.insert(kn.buffer_args.begin(), ws);
    bk.workspaces.push_back(ws);
    if (sched.symbolic) AddSymbolicStrides(ws, kn, bk.params);

    VarPtr ax1 = MakeVar("ax1"), yy = MakeVar("yy"), xx = MakeVar("xx");
    VarPtr rc = MakeVar("rc"), ry = MakeVar("ry"), rx = MakeVar("rx");
    VarPtr ax2 = MakeVar("ax2"), ax3 = MakeVar("ax3");

    const Expr ic = spec.depthwise ? VarRef(ax1) : VarRef(rc);
    Expr mac = Add(ir::Load(ws, {VarRef(yy), VarRef(xx)}),
                   Mul(LoadIn(ic, Add(Mul(VarRef(yy), IntImm(s)), VarRef(ry)),
                              Add(Mul(VarRef(xx), IntImm(s)), VarRef(rx))),
                       LoadWt(VarRef(ax1), ic, VarRef(ry), VarRef(rx))));
    Stmt accum = Store(ws, {VarRef(yy), VarRef(xx)}, std::move(mac));
    ForAnnotation filt_ann;
    if (sched.unroll_filter) filt_ann.unroll = -1;
    Stmt red = For(rx, IntImm(0), IntImm(f), std::move(accum), filt_ann);
    red = For(ry, IntImm(0), IntImm(f), std::move(red), filt_ann);
    if (!spec.depthwise) red = For(rc, IntImm(0), c1e, std::move(red));

    Stmt xx_body =
        Block({Store(ws, {VarRef(yy), VarRef(xx)}, FloatImm(0.0)), red});
    Stmt compute = For(yy, IntImm(0), h2e,
                       For(xx, IntImm(0), w2e, std::move(xx_body)));

    Expr result = ir::Load(ws, {VarRef(ax2), VarRef(ax3)});
    if (bias) result = Add(std::move(result), ir::Load(bias, {VarRef(ax1)}));
    result = apply_act(std::move(result));
    Stmt write =
        io.output
            ? WriteChannel(io.output, std::move(result))
            : Store(output_global, {VarRef(ax1), VarRef(ax2), VarRef(ax3)},
                    std::move(result));
    Stmt writeback = For(ax2, IntImm(0), h2e,
                         For(ax3, IntImm(0), w2e, std::move(write)));

    top.push_back(
        For(ax1, IntImm(0), ke, Block({std::move(compute), std::move(writeback)})));
  } else {
    // ---- Optimized schedule (Listings 5.2-5.4): private accumulator tile,
    // fused activation, filter unrolling, multi-dimensional tiling.
    const std::int64_t c2v = sched.tile_c2;
    const std::int64_t w2v = sched.tile_w2;
    const std::int64_t c1v = spec.depthwise ? 1 : sched.tile_c1;

    BufferPtr tmp = MakeBuffer(name + "_tmp", {IntImm(c2v), IntImm(w2v)},
                               MemScope::kPrivate);
    kn.local_buffers.push_back(tmp);

    VarPtr ax1o = MakeVar("ax1o"), yy = MakeVar("yy"), xxo = MakeVar("xxo");
    VecDim ax1i = MakeVec("ax1i", c2v);
    VecDim xxi = MakeVec("xxi", w2v);
    VecDim rci = MakeVec("rci", c1v);
    VarPtr rco = MakeVar("rco"), ry = MakeVar("ry"), rx = MakeVar("rx");

    const Expr oc = Simplify(Add(Mul(VarRef(ax1o), IntImm(c2v)), ax1i.idx));
    const Expr ic =
        spec.depthwise
            ? oc
            : Simplify(Add(Mul(VarRef(rco), IntImm(c1v)), rci.idx));
    const Expr ox = Simplify(Add(Mul(VarRef(xxo), IntImm(w2v)), xxi.idx));

    // Init: tmp[ax1i][xxi] = 0.
    Stmt init = WrapVec(
        ax1i, WrapVec(xxi, Store(tmp, {ax1i.idx, xxi.idx}, FloatImm(0.0))));

    // MAC body.
    Expr in_h = Simplify(Add(Mul(VarRef(yy), IntImm(s)), VarRef(ry)));
    Expr in_w = Simplify(Add(Mul(ox, IntImm(s)), VarRef(rx)));
    Expr mac = Add(ir::Load(tmp, {ax1i.idx, xxi.idx}),
                   Mul(LoadIn(ic, in_h, in_w),
                       LoadWt(oc, ic, VarRef(ry), VarRef(rx))));
    Stmt body = Store(tmp, {ax1i.idx, xxi.idx}, std::move(mac));
    body = WrapVec(ax1i, WrapVec(xxi, WrapVec(rci, std::move(body))));

    ForAnnotation filt_ann;
    if (sched.unroll_filter) filt_ann.unroll = -1;
    body = For(rx, IntImm(0), IntImm(f), std::move(body), filt_ann);
    body = For(ry, IntImm(0), IntImm(f), std::move(body), filt_ann);
    if (!spec.depthwise) {
      body = For(rco, IntImm(0),
                 c1v == 1 ? c1e : Simplify(Div(c1e, IntImm(c1v))),
                 std::move(body));
    }

    // Fused writeback.
    Expr result = ir::Load(tmp, {ax1i.idx, xxi.idx});
    if (bias) result = Add(std::move(result), ir::Load(bias, {oc}));
    result = apply_act(std::move(result));
    Stmt write = io.output
                     ? WriteChannel(io.output, std::move(result))
                     : Store(output_global, {oc, VarRef(yy), ox},
                             std::move(result));
    Stmt writeback = WrapVec(ax1i, WrapVec(xxi, std::move(write)));

    Stmt xxo_body = Block({std::move(init), std::move(body), std::move(writeback)});
    Stmt nest =
        For(xxo, IntImm(0), w2v == 1 ? w2e : Simplify(Div(w2e, IntImm(w2v))),
            std::move(xxo_body));
    nest = For(yy, IntImm(0), h2e, std::move(nest));
    nest =
        For(ax1o, IntImm(0), c2v == 1 ? ke : Simplify(Div(ke, IntImm(c2v))),
            std::move(nest));
    top.push_back(std::move(nest));
  }

  kn.body = top.size() == 1 ? top[0] : Block(std::move(top));
  if (sched.symbolic && sched.pin_strides) {
    // Pin the innermost stride of every symbolic buffer to 1
    // (Listing 5.11) so the rx/xxi accesses coalesce.
    std::vector<std::string> pins;
    for (const auto& b : kn.buffer_args) {
      if (b->strides.empty()) continue;
      const Expr& last = b->strides.back();
      if (last->kind == ExprKind::kVar) pins.push_back(last->var->name);
    }
    PinStrideVars(kn, pins);
    for (const auto& pin : pins) bk.params.erase(pin);
  }
  kn.Validate();
  return bk;
}

// ---------------------------------------------------------------------------
// Dense

BuiltKernel BuildDenseKernel(const DenseSpec& spec, const DenseSchedule& sched,
                             const std::string& name, const ChannelIO& io) {
  CLFLOW_CHECK_MSG(spec.c1 % sched.unroll_k == 0,
                   "dense unroll factor must divide C1 (no epilogues)");
  CLFLOW_CHECK_MSG(!io.input || sched.input_cache,
                   "channel input requires the input cache (data re-use)");

  BuiltKernel bk;
  Kernel& kn = bk.kernel;
  kn.name = name;

  const Expr c1e = IntImm(spec.c1);
  const Expr c2e = IntImm(spec.c2);

  BufferPtr x_global;
  if (!io.input) {
    x_global = MakeBuffer("in_vec", {c1e}, MemScope::kGlobal, true);
    kn.buffer_args.push_back(x_global);
    bk.input = x_global;
  } else {
    kn.channels_read.push_back(io.input);
  }
  BufferPtr weights = MakeBuffer("wt", {c2e, c1e}, MemScope::kGlobal, true);
  kn.buffer_args.push_back(weights);
  bk.weights = weights;
  BufferPtr bias;
  if (spec.has_bias) {
    bias = MakeBuffer("bias", {c2e}, MemScope::kGlobal, true);
    kn.buffer_args.push_back(bias);
    bk.bias = bias;
  }
  BufferPtr y_global;
  if (!io.output) {
    y_global = MakeBuffer("out_vec", {c2e}, MemScope::kGlobal, true);
    kn.buffer_args.push_back(y_global);
    bk.output = y_global;
  } else {
    kn.channels_written.push_back(io.output);
  }

  BufferPtr x_src = x_global;
  std::vector<Stmt> top;
  if (sched.input_cache) {
    BufferPtr x_local = MakeBuffer(name + "_xcache", {c1e}, MemScope::kLocal);
    kn.local_buffers.push_back(x_local);
    top.push_back(FillLocal(x_local, io.input, x_global, nullptr));
    x_src = x_local;
  }

  VarPtr j = MakeVar("j");

  if (!sched.cached_writes) {
    // Naive (Listing 5.5): dot product accumulated in a global workspace.
    BufferPtr dot = MakeBuffer("dot_ws", {IntImm(1)}, MemScope::kGlobal, true);
    kn.buffer_args.insert(kn.buffer_args.begin(), dot);
    bk.workspaces.push_back(dot);

    VarPtr k = MakeVar("k");
    Stmt red = For(
        k, IntImm(0), c1e,
        Store(dot, {IntImm(0)},
              Add(ir::Load(dot, {IntImm(0)}),
                  Mul(ir::Load(x_src, {VarRef(k)}),
                      ir::Load(weights, {VarRef(j), VarRef(k)})))));
    Expr result = ir::Load(dot, {IntImm(0)});
    if (bias) result = Add(std::move(result), ir::Load(bias, {VarRef(j)}));
    result = ActExpr(spec.activation, std::move(result));
    Stmt write = io.output
                     ? WriteChannel(io.output, std::move(result))
                     : Store(y_global, {VarRef(j)}, std::move(result));
    Stmt body = Block(
        {Store(dot, {IntImm(0)}, FloatImm(0.0)), std::move(red), std::move(write)});
    top.push_back(For(j, IntImm(0), c2e, std::move(body)));
  } else {
    // Optimized (Listing 5.6): private accumulator, strip-mined + unrolled
    // reduction.
    BufferPtr dot =
        MakeBuffer(name + "_dot", {IntImm(1)}, MemScope::kPrivate);
    kn.local_buffers.push_back(dot);

    const std::int64_t u = sched.unroll_k;
    VarPtr ko = MakeVar("ko");
    VecDim ki = MakeVec("ki", u);
    const Expr kidx = Simplify(Add(Mul(VarRef(ko), IntImm(u)), ki.idx));
    Stmt red_body =
        Store(dot, {IntImm(0)},
              Add(ir::Load(dot, {IntImm(0)}),
                  Mul(ir::Load(x_src, {kidx}),
                      ir::Load(weights, {VarRef(j), kidx}))));
    Stmt red = For(ko, IntImm(0), IntImm(spec.c1 / u),
                   WrapVec(ki, std::move(red_body)));
    Expr result = ir::Load(dot, {IntImm(0)});
    if (bias) result = Add(std::move(result), ir::Load(bias, {VarRef(j)}));
    result = ActExpr(spec.activation, std::move(result));
    Stmt write = io.output
                     ? WriteChannel(io.output, std::move(result))
                     : Store(y_global, {VarRef(j)}, std::move(result));
    Stmt body = Block(
        {Store(dot, {IntImm(0)}, FloatImm(0.0)), std::move(red), std::move(write)});
    top.push_back(For(j, IntImm(0), c2e, std::move(body)));
  }

  kn.body = top.size() == 1 ? top[0] : Block(std::move(top));
  kn.Validate();
  return bk;
}

// ---------------------------------------------------------------------------
// Pooling

BuiltKernel BuildPoolKernel(const PoolSpec& spec, const PoolSchedule& sched,
                            const std::string& name, const ChannelIO& io) {
  BuiltKernel bk;
  Kernel& kn = bk.kernel;
  kn.name = name;

  CLFLOW_CHECK_MSG(spec.h1 == spec.w1, "builders assume square feature maps");
  const std::int64_t h2 = (spec.h1 - spec.f) / spec.stride + 1;
  const Expr ce = IntImm(spec.c), h1e = IntImm(spec.h1), w1e = IntImm(spec.w1);
  const Expr h2e = IntImm(h2), w2e = IntImm(h2);

  BufferPtr in_global, i_local;
  if (io.input) {
    i_local = MakeBuffer(name + "_ifm", {ce, h1e, w1e}, MemScope::kLocal);
    kn.local_buffers.push_back(i_local);
    kn.channels_read.push_back(io.input);
  } else {
    in_global = MakeBuffer("in_fm", {ce, h1e, w1e}, MemScope::kGlobal, true);
    kn.buffer_args.push_back(in_global);
    bk.input = in_global;
  }
  BufferPtr out_global;
  if (io.output) {
    kn.channels_written.push_back(io.output);
  } else {
    out_global = MakeBuffer("out_fm", {ce, h2e, w2e}, MemScope::kGlobal, true);
    kn.buffer_args.push_back(out_global);
    bk.output = out_global;
  }

  const BufferPtr in_src = i_local ? i_local : in_global;
  const float init_v =
      spec.is_max ? -3.402823e38f : 0.0f;
  const float inv_area =
      1.0f / static_cast<float>(spec.f * spec.f);

  VarPtr c = MakeVar("c"), oy = MakeVar("oy"), ox = MakeVar("ox");
  VarPtr fy = MakeVar("fy"), fx = MakeVar("fx");
  auto in_at = [&]() {
    return ir::Load(
        in_src,
        {VarRef(c), Add(Mul(VarRef(oy), IntImm(spec.stride)), VarRef(fy)),
         Add(Mul(VarRef(ox), IntImm(spec.stride)), VarRef(fx))});
  };

  std::vector<Stmt> top;
  if (io.input) top.push_back(FillLocal(i_local, io.input, nullptr, nullptr));

  if (!sched.optimized) {
    CLFLOW_CHECK_MSG(!io.output,
                     "naive pooling writes through global memory");
    // Reduction straight into the (global) output tensor, TVM-style.
    Expr red = spec.is_max
                   ? Max(ir::Load(out_global, {VarRef(c), VarRef(oy), VarRef(ox)}),
                         in_at())
                   : Add(ir::Load(out_global, {VarRef(c), VarRef(oy), VarRef(ox)}),
                         in_at());
    Stmt win = For(fy, IntImm(0), IntImm(spec.f),
                   For(fx, IntImm(0), IntImm(spec.f),
                       Store(out_global, {VarRef(c), VarRef(oy), VarRef(ox)},
                             std::move(red))));
    std::vector<Stmt> steps;
    steps.push_back(Store(out_global, {VarRef(c), VarRef(oy), VarRef(ox)},
                          FloatImm(init_v)));
    steps.push_back(std::move(win));
    if (!spec.is_max) {
      steps.push_back(
          Store(out_global, {VarRef(c), VarRef(oy), VarRef(ox)},
                Mul(ir::Load(out_global, {VarRef(c), VarRef(oy), VarRef(ox)}),
                    FloatImm(inv_area))));
    }
    top.push_back(For(
        c, IntImm(0), ce,
        For(oy, IntImm(0), h2e, For(ox, IntImm(0), w2e, Block(steps)))));
  } else {
    // Private accumulator + fully unrolled window.
    BufferPtr acc = MakeBuffer(name + "_acc", {IntImm(1)}, MemScope::kPrivate);
    kn.local_buffers.push_back(acc);
    Expr red = spec.is_max ? Max(ir::Load(acc, {IntImm(0)}), in_at())
                           : Add(ir::Load(acc, {IntImm(0)}), in_at());
    ForAnnotation unroll_ann;
    unroll_ann.unroll = -1;
    Stmt win = For(fy, IntImm(0), IntImm(spec.f),
                   For(fx, IntImm(0), IntImm(spec.f),
                       Store(acc, {IntImm(0)}, std::move(red)), unroll_ann),
                   unroll_ann);
    Expr result = ir::Load(acc, {IntImm(0)});
    if (!spec.is_max) result = Mul(std::move(result), FloatImm(inv_area));
    Stmt write =
        io.output
            ? WriteChannel(io.output, std::move(result))
            : Store(out_global, {VarRef(c), VarRef(oy), VarRef(ox)},
                    std::move(result));
    Stmt body = Block({Store(acc, {IntImm(0)}, FloatImm(init_v)),
                       std::move(win), std::move(write)});
    top.push_back(For(
        c, IntImm(0), ce,
        For(oy, IntImm(0), h2e, For(ox, IntImm(0), w2e, std::move(body)))));
  }

  kn.body = top.size() == 1 ? top[0] : Block(std::move(top));
  kn.Validate();
  return bk;
}

// ---------------------------------------------------------------------------
// Softmax

BuiltKernel BuildSoftmaxKernel(const SoftmaxSpec& spec, bool optimized,
                               const std::string& name, const ChannelIO& io) {
  BuiltKernel bk;
  Kernel& kn = bk.kernel;
  kn.name = name;
  const Expr ne = IntImm(spec.n);

  BufferPtr x_global;
  if (!io.input) {
    x_global = MakeBuffer("in_vec", {ne}, MemScope::kGlobal, true);
    kn.buffer_args.push_back(x_global);
    bk.input = x_global;
  } else {
    kn.channels_read.push_back(io.input);
  }
  BufferPtr y_global;
  if (!io.output) {
    y_global = MakeBuffer("out_vec", {ne}, MemScope::kGlobal, true);
    kn.buffer_args.push_back(y_global);
    bk.output = y_global;
  } else {
    kn.channels_written.push_back(io.output);
  }

  std::vector<Stmt> top;
  BufferPtr x_src = x_global;
  if (io.input) {
    // Softmax makes multiple passes over its input: channel data must be
    // staged into local memory first (SS4.6).
    BufferPtr x_local = MakeBuffer(name + "_xcache", {ne}, MemScope::kLocal);
    kn.local_buffers.push_back(x_local);
    top.push_back(FillLocal(x_local, io.input, nullptr, nullptr));
    x_src = x_local;
  }

  const MemScope ws_scope = optimized ? MemScope::kPrivate : MemScope::kGlobal;
  const MemScope buf_scope = optimized ? MemScope::kLocal : MemScope::kGlobal;
  auto add_ws = [&](BufferPtr b) {
    if (optimized) {
      kn.local_buffers.push_back(b);
    } else {
      b->is_arg = true;
      kn.buffer_args.insert(kn.buffer_args.begin(), b);
      bk.workspaces.push_back(b);
    }
  };
  BufferPtr maxelem =
      MakeBuffer("T_softmax_maxelem", {IntImm(1)}, ws_scope);
  BufferPtr expbuf = MakeBuffer("T_softmax_exp", {ne}, buf_scope);
  BufferPtr expsum =
      MakeBuffer("T_softmax_expsum", {IntImm(1)}, ws_scope);
  add_ws(maxelem);
  add_ws(expbuf);
  add_ws(expsum);

  VarPtr k = MakeVar("k"), i11 = MakeVar("i11"), k1 = MakeVar("k1");
  auto make_stage = [&]() {
    std::vector<Stmt> stage;
    stage.push_back(Store(maxelem, {IntImm(0)}, FloatImm(-3.402823e38)));
    stage.push_back(For(k, IntImm(0), ne,
                        Store(maxelem, {IntImm(0)},
                              Max(ir::Load(maxelem, {IntImm(0)}),
                                  ir::Load(x_src, {VarRef(k)})))));
    stage.push_back(
        For(i11, IntImm(0), ne,
            Store(expbuf, {VarRef(i11)},
                  CallIntrinsic("exp", {Sub(ir::Load(x_src, {VarRef(i11)}),
                                            ir::Load(maxelem, {IntImm(0)}))}))));
    stage.push_back(Store(expsum, {IntImm(0)}, FloatImm(0.0)));
    stage.push_back(For(k1, IntImm(0), ne,
                        Store(expsum, {IntImm(0)},
                              Add(ir::Load(expsum, {IntImm(0)}),
                                  ir::Load(expbuf, {VarRef(k1)})))));
    return stage;
  };

  if (!optimized) {
    // Listing 5.7: the whole reduction pipeline re-runs for every output.
    VarPtr i1 = MakeVar("i1");
    std::vector<Stmt> stage = make_stage();
    Expr result = Div(ir::Load(expbuf, {VarRef(i1)}),
                      ir::Load(expsum, {IntImm(0)}));
    stage.push_back(io.output
                        ? WriteChannel(io.output, std::move(result))
                        : Store(y_global, {VarRef(i1)}, std::move(result)));
    top.push_back(For(i1, IntImm(0), ne, Block(std::move(stage))));
  } else {
    // Listing 5.8: invariants hoisted; one final normalization loop.
    std::vector<Stmt> stage = make_stage();
    VarPtr i1 = MakeVar("i1");
    Expr result = Div(ir::Load(expbuf, {VarRef(i1)}),
                      ir::Load(expsum, {IntImm(0)}));
    stage.push_back(
        For(i1, IntImm(0), ne,
            io.output ? WriteChannel(io.output, std::move(result))
                      : Store(y_global, {VarRef(i1)}, std::move(result))));
    for (auto& s : stage) top.push_back(std::move(s));
  }

  kn.body = top.size() == 1 ? top[0] : Block(std::move(top));
  kn.Validate();
  return bk;
}

// ---------------------------------------------------------------------------
// Padding

BuiltKernel BuildPadKernel(const PadSpec& spec, const std::string& name,
                           const ChannelIO& io) {
  CLFLOW_CHECK_MSG(!spec.symbolic || (!io.input && !io.output),
                   "channelized padding is constant-shape (pipelined mode)");
  BuiltKernel bk;
  Kernel& kn = bk.kernel;
  kn.name = name;

  Expr ce, h1e;
  if (spec.symbolic) {
    VarPtr cv = MakeVar("c_dim", VarKind::kShapeParam);
    VarPtr xv = MakeVar("xx_dim", VarKind::kShapeParam);
    ce = VarRef(cv);
    h1e = VarRef(xv);
    kn.scalar_args.push_back(cv);
    kn.scalar_args.push_back(xv);
    bk.params["C1"] = cv;
    bk.params["HW"] = xv;
  } else {
    CLFLOW_CHECK_MSG(spec.h1 == spec.w1, "builders assume square maps");
    ce = IntImm(spec.c);
    h1e = IntImm(spec.h1);
  }
  const std::int64_t p = spec.pad;
  const Expr w1e = h1e;
  const Expr h2e = Simplify(Add(h1e, IntImm(2 * p)));
  const Expr w2e = h2e;

  // TVM emits the padded tensor as a flat buffer written at the loop
  // index itself (sequential store); only the *loads* use div/mod
  // addressing, which is what defeats AOC (SS6.3.2).
  const Expr plane = Simplify(Mul(h2e, w2e));
  BufferPtr in, i_local;
  if (io.input) {
    // Channel input must be staged: padding reads out of stream order.
    i_local = MakeBuffer(name + "_ifm", {ce, h1e, w1e}, MemScope::kLocal);
    kn.local_buffers.push_back(i_local);
    kn.channels_read.push_back(io.input);
  } else {
    in = MakeBuffer("in_fm", {ce, h1e, w1e}, MemScope::kGlobal, true);
    kn.buffer_args.push_back(in);
    bk.input = in;
  }
  BufferPtr out;
  if (io.output) {
    kn.channels_written.push_back(io.output);
  } else {
    out = MakeBuffer("out_fm", {Simplify(Mul(ce, plane))},
                     MemScope::kGlobal, true);
    kn.buffer_args.push_back(out);
    bk.output = out;
  }

  VarPtr i = MakeVar("i");
  const Expr cc = Div(VarRef(i), plane);
  const Expr hh = Mod(Div(VarRef(i), w2e), h2e);
  const Expr ww = Mod(VarRef(i), w2e);

  Expr in_bounds = Binary(
      BinOp::kAnd,
      Binary(BinOp::kAnd, Binary(BinOp::kGe, hh, IntImm(p)),
             Binary(BinOp::kLt, hh, Add(h1e, IntImm(p)))),
      Binary(BinOp::kAnd, Binary(BinOp::kGe, ww, IntImm(p)),
             Binary(BinOp::kLt, ww, Add(w1e, IntImm(p)))));
  const BufferPtr src = i_local ? i_local : in;
  Expr value = Select(
      std::move(in_bounds),
      ir::Load(src, {cc, Sub(hh, IntImm(p)), Sub(ww, IntImm(p))}),
      FloatImm(0.0));
  Stmt body = io.output ? WriteChannel(io.output, std::move(value))
                        : Store(out, {VarRef(i)}, std::move(value));
  Stmt loop = For(i, IntImm(0), Simplify(Mul(ce, plane)), std::move(body));
  if (i_local) {
    kn.body = Block({FillLocal(i_local, io.input, nullptr, nullptr),
                     std::move(loop)});
  } else {
    kn.body = std::move(loop);
  }
  kn.Validate();
  return bk;
}

// ---------------------------------------------------------------------------
// Residual add

BuiltKernel BuildAddKernel(const AddSpec& spec, std::int64_t unroll,
                           const std::string& name) {
  CLFLOW_CHECK_MSG(unroll >= 1, "bad unroll factor");
  CLFLOW_CHECK_MSG(spec.symbolic || spec.n % unroll == 0,
                   "add unroll must divide element count");

  BuiltKernel bk;
  Kernel& kn = bk.kernel;
  kn.name = name;

  Expr ne;
  if (spec.symbolic) {
    VarPtr nv = MakeVar("n_dim", VarKind::kShapeParam);
    ne = VarRef(nv);
    kn.scalar_args.push_back(nv);
    bk.params["N"] = nv;
  } else {
    ne = IntImm(spec.n);
  }

  BufferPtr a = MakeBuffer("lhs", {ne}, MemScope::kGlobal, true);
  BufferPtr b = MakeBuffer("rhs", {ne}, MemScope::kGlobal, true);
  BufferPtr y = MakeBuffer("out_fm", {ne}, MemScope::kGlobal, true);
  kn.buffer_args = {a, b, y};
  bk.input = a;
  bk.input2 = b;
  bk.output = y;

  VarPtr io_v = MakeVar("io");
  VecDim ii = MakeVec("ii", unroll);
  const Expr idx = Simplify(Add(Mul(VarRef(io_v), IntImm(unroll)), ii.idx));
  Expr sum = ActExpr(spec.activation,
                     Add(ir::Load(a, {idx}), ir::Load(b, {idx})));
  Stmt body = WrapVec(ii, Store(y, {idx}, std::move(sum)));
  kn.body = For(io_v, IntImm(0),
                unroll == 1 ? ne : Simplify(Div(ne, IntImm(unroll))),
                std::move(body));
  kn.Validate();
  return bk;
}

// ---------------------------------------------------------------------------
// Copy

BuiltKernel BuildCopyKernel(std::int64_t n, const std::string& name,
                            const ChannelIO& io) {
  BuiltKernel bk;
  Kernel& kn = bk.kernel;
  kn.name = name;
  const Expr ne = IntImm(n);

  BufferPtr in, out;
  if (!io.input) {
    in = MakeBuffer("in_vec", {ne}, MemScope::kGlobal, true);
    kn.buffer_args.push_back(in);
    bk.input = in;
  } else {
    kn.channels_read.push_back(io.input);
  }
  if (!io.output) {
    out = MakeBuffer("out_vec", {ne}, MemScope::kGlobal, true);
    kn.buffer_args.push_back(out);
    bk.output = out;
  } else {
    kn.channels_written.push_back(io.output);
  }

  VarPtr i = MakeVar("i");
  Expr value = io.input ? ReadChannel(io.input) : ir::Load(in, {VarRef(i)});
  Stmt body = io.output ? WriteChannel(io.output, std::move(value))
                        : Store(out, {VarRef(i)}, std::move(value));
  kn.body = For(i, IntImm(0), ne, std::move(body));
  kn.Validate();
  return bk;
}

}  // namespace clflow::ir

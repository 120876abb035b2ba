/**
 * @file
 * Optimizers. The paper trains LeCA with Adam (Sec. 5.2); SGD with
 * momentum is used for backbone pre-training.
 *
 * Both honour Param::frozen: frozen parameters are never updated. Their
 * layers still pass gradients through to upstream layers but compute
 * none for the frozen parameters, whose grads stay zero, exactly
 * reproducing the paper's frozen-backbone joint training.
 */

#ifndef LECA_NN_OPTIMIZER_HH
#define LECA_NN_OPTIMIZER_HH

#include <vector>

#include "nn/param.hh"

namespace leca {

/** Common optimizer interface over a parameter set. */
class Optimizer
{
  public:
    explicit Optimizer(std::vector<Param *> params)
        : _params(std::move(params))
    {
    }
    virtual ~Optimizer() = default;

    /** Apply one update from the accumulated gradients. */
    virtual void step() = 0;

    /** Clear all gradient accumulators. */
    void zeroGrad();

    /** Change the learning rate (for decay schedules). */
    void setLearningRate(double lr) { _lr = lr; }
    double learningRate() const { return _lr; }

  protected:
    std::vector<Param *> _params;
    double _lr = 1e-3;
};

/** SGD with classical momentum and optional L2 weight decay. */
class Sgd : public Optimizer
{
  public:
    Sgd(std::vector<Param *> params, double lr, double momentum = 0.9,
        double weight_decay = 0.0);

    void step() override;

  private:
    double _momentum;
    double _weightDecay;
    std::vector<Tensor> _velocity;
};

/** Adam (Kingma & Ba) with bias correction. */
class Adam : public Optimizer
{
  public:
    Adam(std::vector<Param *> params, double lr, double beta1 = 0.9,
         double beta2 = 0.999, double eps = 1e-8);

    void step() override;

  private:
    double _beta1, _beta2, _eps;
    long _t = 0;
    std::vector<Tensor> _m;
    std::vector<Tensor> _v;
};

} // namespace leca

#endif // LECA_NN_OPTIMIZER_HH

"""Pinned numerics: twenty teacher-forced training steps of a small attention
encoder-decoder, built from the ops of ``bench/model.py``, with gradient
clipping and Adam.

Every loss is compared with ``==``, so any change to the arithmetic of a
forward or backward, or to the order in which gradients are summed, fails
here. The values were recorded in float64 with numpy 2.4 and its bundled
OpenBLAS 0.3 on x86-64; another BLAS build may round its products
differently.
"""

import numpy as np

from boxparse import autodiff as ad

D, N_SRC, N_TGT = 6, 9, 11
PINNED_LOSSES = [
    2.3811162143209894,
    2.33181002521463,
    2.373597425657508,
    2.582353941039925,
    2.423562563321323,
    2.1696219123167624,
    2.2350518180230186,
    2.285189795350187,
    2.4591837123257356,
    2.3724593626201003,
    2.095090919501747,
    2.1659586388264556,
    2.2270951659343896,
    2.367742237281831,
    2.3126655309028954,
    2.0356358015667357,
    2.0919681252176403,
    2.169560955273289,
    2.288480261424718,
    2.2452099362477926,
]


def tiny_seq2seq(rng: np.random.Generator) -> dict[str, ad.Tensor]:
    return {
        "src_emb": ad.uniform((N_SRC, D), rng, scale=0.5),
        "tgt_emb": ad.uniform((N_TGT, D), rng, scale=0.5),
        "enc_w": ad.uniform((D, 2 * D), rng, scale=0.5),
        "enc_b": ad.zeros((D,), requires_grad=True),
        "dec_w": ad.uniform((D, 3 * D), rng, scale=0.5),
        "dec_b": ad.zeros((D,), requires_grad=True),
        "out_w": ad.uniform((N_TGT, 2 * D), rng, scale=0.5),
        "out_b": ad.zeros((N_TGT,), requires_grad=True),
    }


def loss_of(p: dict[str, ad.Tensor], src: list[int], tgt: list[int]) -> ad.Tensor:
    """Mean cross-entropy of ``tgt + [1]`` given ``src``, as in
    ``bench/model.py``: a tanh RNN encoder, and a tanh RNN decoder that
    attends with dot-product scores and picks each weight out with a
    one-hot ``dot``."""
    h = ad.zeros((D,))
    states = []
    for i in src:
        x = ad.embedding_lookup(p["src_emb"], i)
        h = ad.tanh(ad.add(ad.matmul(p["enc_w"], ad.concat([x, h])), p["enc_b"]))
        states.append(h)
    picks = [ad.tensor(np.eye(len(states))[k]) for k in range(len(states))]
    s, context, prev, losses = h, ad.zeros((D,)), 0, []
    for y in tgt + [1]:
        e = ad.embedding_lookup(p["tgt_emb"], prev)
        s = ad.tanh(ad.add(ad.matmul(p["dec_w"], ad.concat([e, s, context])), p["dec_b"]))
        weights = ad.softmax(ad.concat([ad.dot(s, st) for st in states]))
        context = ad.sum_over([ad.mul(ad.dot(weights, pick), st)
                               for pick, st in zip(picks, states)])
        logits = ad.add(ad.matmul(p["out_w"], ad.concat([s, context])), p["out_b"])
        losses.append(ad.softmax_cross_entropy(logits, y))
        prev = y
    return ad.scale(ad.sum_over(losses), 1.0 / len(losses))


def train_losses(steps: int = 20) -> list[float]:
    rng = np.random.default_rng(2024)
    params = tiny_seq2seq(rng)
    data = [(rng.integers(0, N_SRC, size=rng.integers(2, 6)).tolist(),
             rng.integers(2, N_TGT, size=rng.integers(3, 8)).tolist()) for _ in range(5)]
    opt = ad.Adam(list(params.values()), lr=0.01)
    out = []
    for step in range(steps):
        loss = loss_of(params, *data[step % len(data)])
        ad.backward(loss)
        ad.clip_grad_norm(opt.params, 0.6)
        opt.step()
        opt.zero_grad()
        out.append(float(loss.data))
    return out


def test_twenty_training_steps_give_the_pinned_losses():
    assert train_losses() == PINNED_LOSSES

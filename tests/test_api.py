import rgae


def test_public_names_resolve():
    for name in rgae.__all__:
        assert getattr(rgae, name) is not None


def test_readme_library_snippet():
    # the README "Library use" example, with a short training run
    from rgae import SynthConfig, TrainConfig, generate, train
    from rgae.evaluate import classification_report

    net = generate(SynthConfig(n=60, communities=(20, 20, 20), views=2, seed=7))
    params, embeds, history = train(net, TrainConfig(dim=32, seed=0, max_epochs=3))
    rows = classification_report(embeds.final, net.labels, ratios=(0.5,))
    assert len(history) == 3
    assert embeds.final.shape == (60, 30)
    assert {m for _, _, _, m, _ in rows} == {"micro_f1", "macro_f1"}

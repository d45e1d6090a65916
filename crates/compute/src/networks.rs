//! Layer-shape descriptions of the CNNs behind the EO applications
//! (paper Fig. 13).
//!
//! The accelerator design-space exploration (`sudc-accel`) only consumes
//! layer *shapes* — spatial dimensions, channel counts, kernel sizes — so
//! networks are described structurally. Topologies follow the published
//! architectures each application family deploys (ResNet-50, VGG-16,
//! Inception-v3, DenseNet-121, U-Net, DeepLab-v3, detector CNNs, a
//! convolutional autoencoder, and a panoptic FPN); parallel branches are
//! flattened to equivalent sequential convolutions, and pooling is folded
//! into strided convolutions, both standard simplifications for analytical
//! dataflow energy models.

/// Identifies one of the ten modeled networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NetworkId {
    /// Inception-v3 (air-pollution regression).
    InceptionV3,
    /// DenseNet-121 (crop-monitoring classification).
    DenseNet121,
    /// U-Net (flood-detection segmentation).
    UNet,
    /// Fast aircraft-detector CNN (object recognition).
    FastDetectorCnn,
    /// ResNet-50 (forage-quality regression).
    ResNet50,
    /// VGG-16 (urban-emergency classification).
    Vgg16,
    /// DeepLab-v3 (oil-spill segmentation).
    DeepLabV3,
    /// Tiny traffic-detector CNN (object recognition).
    TinyDetectorCnn,
    /// Convolutional autoencoder (land-surface clustering).
    ConvAutoencoder,
    /// Panoptic FPN (panoptic segmentation).
    PanopticFpn,
    /// MobileNetV2-style depthwise-separable classifier (not part of the
    /// Table III suite; exercises the depthwise dataflow path and models
    /// edge compute on EO satellites, §V).
    MobileNetV2,
}

impl NetworkId {
    /// All modeled networks.
    #[must_use]
    pub fn all() -> [Self; 10] {
        [
            Self::InceptionV3,
            Self::DenseNet121,
            Self::UNet,
            Self::FastDetectorCnn,
            Self::ResNet50,
            Self::Vgg16,
            Self::DeepLabV3,
            Self::TinyDetectorCnn,
            Self::ConvAutoencoder,
            Self::PanopticFpn,
        ]
    }

    /// Builds the full layer description for this network.
    #[must_use]
    pub fn network(self) -> Network {
        match self {
            Self::InceptionV3 => inception_v3(),
            Self::DenseNet121 => densenet_121(),
            Self::UNet => u_net(),
            Self::FastDetectorCnn => fast_detector(),
            Self::ResNet50 => resnet_50(),
            Self::Vgg16 => vgg_16(),
            Self::DeepLabV3 => deeplab_v3(),
            Self::TinyDetectorCnn => tiny_detector(),
            Self::ConvAutoencoder => conv_autoencoder(),
            Self::PanopticFpn => panoptic_fpn(),
            Self::MobileNetV2 => mobilenet_v2(),
        }
    }
}

impl core::fmt::Display for NetworkId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            Self::InceptionV3 => "Inception-v3",
            Self::DenseNet121 => "DenseNet-121",
            Self::UNet => "U-Net",
            Self::FastDetectorCnn => "FastDetector-CNN",
            Self::ResNet50 => "ResNet-50",
            Self::Vgg16 => "VGG-16",
            Self::DeepLabV3 => "DeepLab-v3",
            Self::TinyDetectorCnn => "TinyDetector-CNN",
            Self::ConvAutoencoder => "Conv-Autoencoder",
            Self::PanopticFpn => "Panoptic-FPN",
            Self::MobileNetV2 => "MobileNetV2",
        };
        f.write_str(name)
    }
}

/// The operator class of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Standard convolution.
    Conv,
    /// Depthwise convolution (one filter per channel).
    DepthwiseConv,
    /// Fully-connected layer.
    Dense,
}

/// One layer of a network, described by shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layer {
    /// Operator class.
    pub kind: LayerKind,
    /// Input feature-map height (1 for dense layers).
    pub input_h: u32,
    /// Input feature-map width (1 for dense layers).
    pub input_w: u32,
    /// Input channels (dense: input features).
    pub in_channels: u32,
    /// Output channels (dense: output features).
    pub out_channels: u32,
    /// Square kernel size (1 for dense layers).
    pub kernel: u32,
    /// Stride (same padding assumed).
    pub stride: u32,
}

impl Layer {
    /// A standard convolution with "same" padding.
    #[must_use]
    pub fn conv(h: u32, w: u32, c_in: u32, c_out: u32, kernel: u32, stride: u32) -> Self {
        Self {
            kind: LayerKind::Conv,
            input_h: h,
            input_w: w,
            in_channels: c_in,
            out_channels: c_out,
            kernel,
            stride,
        }
    }

    /// A depthwise convolution (`out_channels == in_channels`).
    #[must_use]
    pub fn depthwise(h: u32, w: u32, c: u32, kernel: u32, stride: u32) -> Self {
        Self {
            kind: LayerKind::DepthwiseConv,
            input_h: h,
            input_w: w,
            in_channels: c,
            out_channels: c,
            kernel,
            stride,
        }
    }

    /// A fully-connected layer.
    #[must_use]
    pub fn dense(inputs: u32, outputs: u32) -> Self {
        Self {
            kind: LayerKind::Dense,
            input_h: 1,
            input_w: 1,
            in_channels: inputs,
            out_channels: outputs,
            kernel: 1,
            stride: 1,
        }
    }

    /// Output feature-map height (same padding: `ceil(h / stride)`).
    #[must_use]
    pub fn output_h(&self) -> u32 {
        self.input_h.div_ceil(self.stride)
    }

    /// Output feature-map width.
    #[must_use]
    pub fn output_w(&self) -> u32 {
        self.input_w.div_ceil(self.stride)
    }

    /// Multiply-accumulate operations for one inference.
    #[must_use]
    pub fn macs(&self) -> u64 {
        let out_px = u64::from(self.output_h()) * u64::from(self.output_w());
        let k2 = u64::from(self.kernel) * u64::from(self.kernel);
        match self.kind {
            LayerKind::Conv => {
                out_px * u64::from(self.out_channels) * u64::from(self.in_channels) * k2
            }
            LayerKind::DepthwiseConv => out_px * u64::from(self.in_channels) * k2,
            LayerKind::Dense => u64::from(self.in_channels) * u64::from(self.out_channels),
        }
    }

    /// Number of weight parameters.
    #[must_use]
    pub fn weights(&self) -> u64 {
        let k2 = u64::from(self.kernel) * u64::from(self.kernel);
        match self.kind {
            LayerKind::Conv => u64::from(self.in_channels) * u64::from(self.out_channels) * k2,
            LayerKind::DepthwiseConv => u64::from(self.in_channels) * k2,
            LayerKind::Dense => u64::from(self.in_channels) * u64::from(self.out_channels),
        }
    }

    /// Input activation count.
    #[must_use]
    pub fn input_activations(&self) -> u64 {
        u64::from(self.input_h) * u64::from(self.input_w) * u64::from(self.in_channels)
    }

    /// Output activation count.
    #[must_use]
    pub fn output_activations(&self) -> u64 {
        u64::from(self.output_h()) * u64::from(self.output_w()) * u64::from(self.out_channels)
    }
}

/// A complete network description.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    /// Which network this is.
    pub id: NetworkId,
    /// Ordered layer list.
    pub layers: Vec<Layer>,
}

impl Network {
    /// Total MACs per inference.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }

    /// Total weight parameters.
    #[must_use]
    pub fn total_weights(&self) -> u64 {
        self.layers.iter().map(Layer::weights).sum()
    }
}

/// Appends a ResNet bottleneck block (1x1 down, 3x3, 1x1 up).
fn push_bottleneck(layers: &mut Vec<Layer>, h: u32, w: u32, c_in: u32, mid: u32, stride: u32) {
    layers.push(Layer::conv(h, w, c_in, mid, 1, 1));
    layers.push(Layer::conv(h, w, mid, mid, 3, stride));
    let (oh, ow) = (h.div_ceil(stride), w.div_ceil(stride));
    layers.push(Layer::conv(oh, ow, mid, mid * 4, 1, 1));
}

fn resnet_50() -> Network {
    let mut layers = vec![Layer::conv(224, 224, 3, 64, 7, 2)];
    // Stage conv2_x: 3 blocks at 56x56 (stem stride-2 + pool fold -> 56).
    for i in 0..3 {
        push_bottleneck(&mut layers, 56, 56, if i == 0 { 64 } else { 256 }, 64, 1);
    }
    // conv3_x: 4 blocks at 28x28.
    push_bottleneck(&mut layers, 56, 56, 256, 128, 2);
    for _ in 0..3 {
        push_bottleneck(&mut layers, 28, 28, 512, 128, 1);
    }
    // conv4_x: 6 blocks at 14x14.
    push_bottleneck(&mut layers, 28, 28, 512, 256, 2);
    for _ in 0..5 {
        push_bottleneck(&mut layers, 14, 14, 1024, 256, 1);
    }
    // conv5_x: 3 blocks at 7x7.
    push_bottleneck(&mut layers, 14, 14, 1024, 512, 2);
    for _ in 0..2 {
        push_bottleneck(&mut layers, 7, 7, 2048, 512, 1);
    }
    layers.push(Layer::dense(2048, 1000));
    Network {
        id: NetworkId::ResNet50,
        layers,
    }
}

fn vgg_16() -> Network {
    let cfg: &[(u32, u32, u32, usize)] = &[
        // (resolution, c_in, c_out, conv count)
        (224, 3, 64, 1),
        (224, 64, 64, 1),
        (112, 64, 128, 1),
        (112, 128, 128, 1),
        (56, 128, 256, 1),
        (56, 256, 256, 2),
        (28, 256, 512, 1),
        (28, 512, 512, 2),
        (14, 512, 512, 3),
    ];
    let mut layers = Vec::new();
    for &(res, c_in, c_out, n) in cfg {
        for i in 0..n {
            let cin = if i == 0 { c_in } else { c_out };
            layers.push(Layer::conv(res, res, cin, c_out, 3, 1));
        }
    }
    layers.push(Layer::dense(7 * 7 * 512, 4096));
    layers.push(Layer::dense(4096, 4096));
    layers.push(Layer::dense(4096, 1000));
    Network {
        id: NetworkId::Vgg16,
        layers,
    }
}

fn inception_v3() -> Network {
    let mut layers = vec![
        Layer::conv(299, 299, 3, 32, 3, 2),
        Layer::conv(149, 149, 32, 32, 3, 1),
        Layer::conv(149, 149, 32, 64, 3, 1),
        Layer::conv(74, 74, 64, 80, 1, 1),
        Layer::conv(74, 74, 80, 192, 3, 2),
    ];
    // Inception-A x3 at 35x35 (branches flattened to sequential convs).
    for _ in 0..3 {
        layers.push(Layer::conv(35, 35, 192, 64, 1, 1));
        layers.push(Layer::conv(35, 35, 64, 96, 3, 1));
        layers.push(Layer::conv(35, 35, 96, 96, 3, 1));
        layers.push(Layer::conv(35, 35, 192, 64, 1, 1));
    }
    // Reduction-A.
    layers.push(Layer::conv(35, 35, 288, 384, 3, 2));
    // Inception-B x4 at 17x17 with factorized 7x1/1x7 (modeled as two 7-row
    // kernels via kernel=7 depthwise-ish convs flattened to standard convs).
    for _ in 0..4 {
        layers.push(Layer::conv(17, 17, 384, 128, 1, 1));
        layers.push(Layer::conv(17, 17, 128, 128, 7, 1));
        layers.push(Layer::conv(17, 17, 128, 192, 1, 1));
    }
    // Reduction-B.
    layers.push(Layer::conv(17, 17, 768, 320, 3, 2));
    // Inception-C x2 at 9x9.
    for _ in 0..2 {
        layers.push(Layer::conv(9, 9, 320, 448, 1, 1));
        layers.push(Layer::conv(9, 9, 448, 384, 3, 1));
        layers.push(Layer::conv(9, 9, 384, 320, 1, 1));
    }
    layers.push(Layer::dense(2048, 1));
    Network {
        id: NetworkId::InceptionV3,
        layers,
    }
}

fn densenet_121() -> Network {
    let growth = 32;
    let mut layers = vec![Layer::conv(224, 224, 3, 64, 7, 2)];
    let mut c = 64;
    // Dense blocks of (6, 12, 24, 16) layers at (56, 28, 14, 7) resolution,
    // each layer a 1x1 bottleneck + 3x3 conv adding `growth` channels.
    for (block, &(res, n)) in [(56u32, 6usize), (28, 12), (14, 24), (7, 16)]
        .iter()
        .enumerate()
    {
        for _ in 0..n {
            layers.push(Layer::conv(res, res, c, 4 * growth, 1, 1));
            layers.push(Layer::conv(res, res, 4 * growth, growth, 3, 1));
            c += growth;
        }
        if block < 3 {
            // Transition: 1x1 halving channels + stride-2 downsample.
            layers.push(Layer::conv(res, res, c, c / 2, 1, 2));
            c /= 2;
        }
    }
    layers.push(Layer::dense(c, 1000));
    Network {
        id: NetworkId::DenseNet121,
        layers,
    }
}

fn u_net() -> Network {
    let mut layers = Vec::new();
    // Encoder: double 3x3 convs at 512..32, doubling channels.
    let enc: &[(u32, u32, u32)] = &[
        (512, 3, 64),
        (256, 64, 128),
        (128, 128, 256),
        (64, 256, 512),
        (32, 512, 1024),
    ];
    for &(res, c_in, c_out) in enc {
        layers.push(Layer::conv(res, res, c_in, c_out, 3, 1));
        layers.push(Layer::conv(res, res, c_out, c_out, 3, 1));
    }
    // Decoder: upsample + double convs with skip concatenation.
    let dec: &[(u32, u32, u32)] = &[
        (64, 1024 + 512, 512),
        (128, 512 + 256, 256),
        (256, 256 + 128, 128),
        (512, 128 + 64, 64),
    ];
    for &(res, c_in, c_out) in dec {
        layers.push(Layer::conv(res, res, c_in, c_out, 3, 1));
        layers.push(Layer::conv(res, res, c_out, c_out, 3, 1));
    }
    layers.push(Layer::conv(512, 512, 64, 2, 1, 1));
    Network {
        id: NetworkId::UNet,
        layers,
    }
}

fn deeplab_v3() -> Network {
    // ResNet-50 backbone with output stride 16, then ASPP.
    let mut net = resnet_50();
    let mut layers = net.layers;
    layers.pop(); // drop the classifier head
                  // ASPP: four parallel 3x3 atrous convs + 1x1, flattened sequentially.
    for _ in 0..4 {
        layers.push(Layer::conv(32, 32, 2048, 256, 3, 1));
    }
    layers.push(Layer::conv(32, 32, 1280, 256, 1, 1));
    layers.push(Layer::conv(32, 32, 256, 21, 1, 1));
    net.id = NetworkId::DeepLabV3;
    net.layers = layers;
    net
}

fn fast_detector() -> Network {
    // A YOLO-style single-shot detector over 416x416 tiles.
    let cfg: &[(u32, u32, u32, u32, u32)] = &[
        (416, 3, 32, 3, 1),
        (416, 32, 64, 3, 2),
        (208, 64, 128, 3, 2),
        (104, 128, 256, 3, 2),
        (52, 256, 512, 3, 2),
        (26, 512, 1024, 3, 2),
        (13, 1024, 512, 1, 1),
        (13, 512, 1024, 3, 1),
        (13, 1024, 255, 1, 1),
    ];
    let layers = cfg
        .iter()
        .map(|&(h, c_in, c_out, k, s)| Layer::conv(h, h, c_in, c_out, k, s))
        .collect();
    Network {
        id: NetworkId::FastDetectorCnn,
        layers,
    }
}

fn tiny_detector() -> Network {
    let cfg: &[(u32, u32, u32)] = &[
        (256, 3, 16),
        (128, 16, 32),
        (64, 32, 64),
        (32, 64, 128),
        (16, 128, 256),
    ];
    let mut layers: Vec<Layer> = cfg
        .iter()
        .map(|&(h, c_in, c_out)| Layer::conv(h, h, c_in, c_out, 3, 2))
        .collect();
    layers.push(Layer::conv(8, 8, 256, 24, 1, 1));
    Network {
        id: NetworkId::TinyDetectorCnn,
        layers,
    }
}

fn conv_autoencoder() -> Network {
    let layers = vec![
        Layer::conv(256, 256, 8, 32, 3, 2),
        Layer::conv(128, 128, 32, 64, 3, 2),
        Layer::conv(64, 64, 64, 128, 3, 2),
        Layer::conv(32, 32, 128, 16, 1, 1),
        Layer::conv(32, 32, 16, 128, 1, 1),
        Layer::conv(64, 64, 128, 64, 3, 1),
        Layer::conv(128, 128, 64, 32, 3, 1),
        Layer::conv(256, 256, 32, 8, 3, 1),
    ];
    Network {
        id: NetworkId::ConvAutoencoder,
        layers,
    }
}

fn panoptic_fpn() -> Network {
    // ResNet-50 backbone + FPN lateral/output convs + semantic and instance
    // heads over 512x512 tiles.
    let mut net = resnet_50();
    let mut layers = net.layers;
    layers.pop();
    // FPN laterals (1x1) and outputs (3x3) at four pyramid levels.
    for &(res, c_in) in &[(128u32, 256u32), (64, 512), (32, 1024), (16, 2048)] {
        layers.push(Layer::conv(res, res, c_in, 256, 1, 1));
        layers.push(Layer::conv(res, res, 256, 256, 3, 1));
    }
    // Semantic head: 4 convs at the highest-resolution level.
    for _ in 0..4 {
        layers.push(Layer::conv(128, 128, 256, 256, 3, 1));
    }
    layers.push(Layer::conv(128, 128, 256, 54, 1, 1));
    // Instance head (RPN + box/mask, flattened).
    for _ in 0..4 {
        layers.push(Layer::conv(64, 64, 256, 256, 3, 1));
    }
    layers.push(Layer::dense(256 * 49, 1024));
    layers.push(Layer::dense(1024, 1024));
    net.id = NetworkId::PanopticFpn;
    net.layers = layers;
    net
}

/// Appends an inverted-residual block (1x1 expand, 3x3 depthwise, 1x1
/// project).
fn push_inverted_residual(
    layers: &mut Vec<Layer>,
    h: u32,
    w: u32,
    c_in: u32,
    c_out: u32,
    expansion: u32,
    stride: u32,
) {
    let mid = c_in * expansion;
    layers.push(Layer::conv(h, w, c_in, mid, 1, 1));
    layers.push(Layer::depthwise(h, w, mid, 3, stride));
    let (oh, ow) = (h.div_ceil(stride), w.div_ceil(stride));
    layers.push(Layer::conv(oh, ow, mid, c_out, 1, 1));
}

/// MobileNetV2-style classifier over 224x224 inputs — the class of network
/// an EO satellite's *edge* compute runs for cloud filtering (§V).
fn mobilenet_v2() -> Network {
    let mut layers = vec![Layer::conv(224, 224, 3, 32, 3, 2)];
    // (c_in, c_out, expansion, stride, resolution-in)
    let blocks: &[(u32, u32, u32, u32, u32)] = &[
        (32, 16, 1, 1, 112),
        (16, 24, 6, 2, 112),
        (24, 24, 6, 1, 56),
        (24, 32, 6, 2, 56),
        (32, 32, 6, 1, 28),
        (32, 64, 6, 2, 28),
        (64, 64, 6, 1, 14),
        (64, 96, 6, 1, 14),
        (96, 160, 6, 2, 14),
        (160, 160, 6, 1, 7),
        (160, 320, 6, 1, 7),
    ];
    for &(c_in, c_out, exp, stride, res) in blocks {
        push_inverted_residual(&mut layers, res, res, c_in, c_out, exp, stride);
    }
    layers.push(Layer::conv(7, 7, 320, 1280, 1, 1));
    layers.push(Layer::dense(1280, 1000));
    Network {
        id: NetworkId::MobileNetV2,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_networks_build() {
        for id in NetworkId::all() {
            let net = id.network();
            assert_eq!(net.id, id);
            assert!(net.layers.len() > 3, "{id} too shallow");
            assert!(net.total_macs() > 0, "{id} has no work");
            assert!(net.total_weights() > 0, "{id} has no weights");
        }
    }

    #[test]
    fn resnet50_macs_are_in_the_published_ballpark() {
        // Published ResNet-50: ~4.1 GMACs at 224x224.
        let g_macs = resnet_50().total_macs() as f64 / 1e9;
        assert!(g_macs > 2.5 && g_macs < 6.0, "got {g_macs} GMACs");
    }

    #[test]
    fn resnet50_weights_are_in_the_published_ballpark() {
        // Published ResNet-50: ~25.6 M parameters.
        let m = resnet_50().total_weights() as f64 / 1e6;
        assert!(m > 18.0 && m < 33.0, "got {m} M params");
    }

    #[test]
    fn vgg16_is_heavier_than_resnet50() {
        // VGG-16 is famously ~15.5 GMACs and ~138 M params.
        assert!(vgg_16().total_macs() > 2 * resnet_50().total_macs());
        assert!(vgg_16().total_weights() > 4 * resnet_50().total_weights());
    }

    #[test]
    fn segmentation_networks_dominate_detector_cnns() {
        assert!(u_net().total_macs() > fast_detector().total_macs());
        assert!(panoptic_fpn().total_macs() > tiny_detector().total_macs());
    }

    #[test]
    fn tiny_detector_is_the_lightest() {
        let tiny = tiny_detector().total_macs();
        for id in NetworkId::all() {
            if id != NetworkId::TinyDetectorCnn && id != NetworkId::ConvAutoencoder {
                assert!(id.network().total_macs() > tiny, "{id}");
            }
        }
    }

    #[test]
    fn layer_shape_arithmetic() {
        let l = Layer::conv(56, 56, 64, 128, 3, 2);
        assert_eq!(l.output_h(), 28);
        assert_eq!(l.output_w(), 28);
        assert_eq!(l.macs(), 28 * 28 * 128 * 64 * 9);
        assert_eq!(l.weights(), 64 * 128 * 9);
        assert_eq!(l.input_activations(), 56 * 56 * 64);
        assert_eq!(l.output_activations(), 28 * 28 * 128);
    }

    #[test]
    fn depthwise_macs_skip_cross_channel_products() {
        let dw = Layer::depthwise(28, 28, 128, 3, 1);
        assert_eq!(dw.macs(), 28 * 28 * 128 * 9);
        assert_eq!(dw.weights(), 128 * 9);
    }

    #[test]
    fn dense_layer_shape() {
        let d = Layer::dense(2048, 1000);
        assert_eq!(d.macs(), 2048 * 1000);
        assert_eq!(d.weights(), 2048 * 1000);
        assert_eq!(d.output_activations(), 1000);
    }

    #[test]
    fn densenet_has_121_ish_depth() {
        // 1 stem + 58 dense-block pairs (116) + 3 transitions + classifier.
        assert!(densenet_121().layers.len() > 100);
    }

    #[test]
    fn display_names() {
        assert_eq!(NetworkId::ResNet50.to_string(), "ResNet-50");
        assert_eq!(NetworkId::PanopticFpn.to_string(), "Panoptic-FPN");
        assert_eq!(NetworkId::MobileNetV2.to_string(), "MobileNetV2");
    }

    #[test]
    fn mobilenet_is_light_and_uses_depthwise_convs() {
        let net = mobilenet_v2();
        // Published MobileNetV2: ~0.3 GMACs, ~3.5 M params.
        let g_macs = net.total_macs() as f64 / 1e9;
        assert!(g_macs > 0.15 && g_macs < 0.6, "got {g_macs} GMACs");
        let m = net.total_weights() as f64 / 1e6;
        assert!(m > 2.0 && m < 6.0, "got {m} M params");
        assert!(net
            .layers
            .iter()
            .any(|l| l.kind == LayerKind::DepthwiseConv));
        // Not part of the Table III DSE suite.
        assert!(!NetworkId::all().contains(&NetworkId::MobileNetV2));
    }

    #[test]
    fn mobilenet_is_far_cheaper_than_resnet() {
        assert!(resnet_50().total_macs() > 8 * mobilenet_v2().total_macs());
    }
}

package defense

import (
	"fmt"

	"rowhammer/internal/data"
	"rowhammer/internal/nn"
	"rowhammer/internal/tensor"
)

// GradCAM computes the Grad-CAM heatmap of Selvaraju et al. for one
// image and class: the last convolutional feature map, weighted by the
// spatial mean of its class gradient and rectified, upsampled to the
// input resolution. This is the estimator the paper's Figure 8 /
// SentiNet analysis uses.
//
// A Tap must be installed in the model first (InstallGradCAMTap); the
// same tapped model can be reused across calls.
func GradCAM(m *nn.Model, tap *nn.Tap, image []float32, class int) (*tensor.Tensor, error) {
	c, h, w := m.InputShape[0], m.InputShape[1], m.InputShape[2]
	x := tensor.FromSlice(append([]float32(nil), image...), 1, c, h, w)
	// Training-mode forward fills the backward caches; frozen batch
	// norm keeps inference behavior (and running stats) untouched.
	nn.FreezeBatchNorm(m.Root)
	logits := m.Forward(x, true)
	if class < 0 || class >= logits.Dim(1) {
		return nil, fmt.Errorf("defense: class %d out of range", class)
	}
	m.ZeroGrad()
	onehot := tensor.New(1, logits.Dim(1))
	onehot.Set(1, 0, class)
	m.Backward(onehot)

	act, grad := tap.Activation(), tap.Gradient()
	if act == nil || grad == nil {
		return nil, fmt.Errorf("defense: tap recorded nothing — is it installed in the graph?")
	}
	channels, fh, fw := act.Dim(1), act.Dim(2), act.Dim(3)

	// α_c: global-average-pooled gradient per channel.
	alphas := make([]float32, channels)
	gd := grad.Data()
	for ch := 0; ch < channels; ch++ {
		var s float64
		base := ch * fh * fw
		for i := 0; i < fh*fw; i++ {
			s += float64(gd[base+i])
		}
		alphas[ch] = float32(s / float64(fh*fw))
	}

	// heat = ReLU(Σ_c α_c·A_c), at feature resolution.
	small := tensor.New(fh, fw)
	sd := small.Data()
	ad := act.Data()
	for ch := 0; ch < channels; ch++ {
		a := alphas[ch]
		if a == 0 {
			continue
		}
		base := ch * fh * fw
		for i := 0; i < fh*fw; i++ {
			sd[i] += a * ad[base+i]
		}
	}
	for i, v := range sd {
		if v < 0 {
			sd[i] = 0
		}
	}

	// Nearest-neighbor upsample to input resolution.
	heat := tensor.New(h, w)
	hd := heat.Data()
	for y := 0; y < h; y++ {
		fy := y * fh / h
		for xx := 0; xx < w; xx++ {
			fx := xx * fw / w
			hd[y*w+xx] = sd[fy*fw+fx]
		}
	}
	return heat, nil
}

// InstallGradCAMTap inserts a Tap in front of the model's global
// average pooling — i.e. on the last convolutional feature map — and
// returns it. The model's root must be a Sequential ending in
// GlobalAvgPool (every ResNet builder in internal/models qualifies).
func InstallGradCAMTap(m *nn.Model) (*nn.Tap, error) {
	seq, ok := m.Root.(*nn.Sequential)
	if !ok {
		return nil, fmt.Errorf("defense: model root is not a Sequential")
	}
	tap := nn.NewTap()
	if !seq.InsertBefore(func(l nn.Layer) bool {
		_, isGAP := l.(*nn.GlobalAvgPool)
		return isGAP
	}, tap) {
		return nil, fmt.Errorf("defense: no GlobalAvgPool found to tap")
	}
	return tap, nil
}

// EvaluateGradCAM measures the Figure 8 focus shift with the Grad-CAM
// estimator: both models get a tap installed and the trigger-region
// heat ratio is averaged over the first n samples.
func EvaluateGradCAM(clean, backdoored *nn.Model, ds *data.Dataset, trigger *data.Trigger, target, n int) (SentiNetReport, error) {
	cleanTap, err := InstallGradCAMTap(clean)
	if err != nil {
		return SentiNetReport{}, err
	}
	backTap, err := InstallGradCAMTap(backdoored)
	if err != nil {
		return SentiNetReport{}, err
	}
	if n > ds.Len() {
		n = ds.Len()
	}
	c, h, w := ds.ImageSize()
	rep := SentiNetReport{
		MaskArea: float64(trigger.Size*trigger.Size) / float64(h*w),
	}
	for i := 0; i < n; i++ {
		img := tensor.FromSlice(append([]float32(nil), ds.Image(i)...), 1, c, h, w)
		trigger.Apply(img)
		stamped := img.Data()
		ch, err := GradCAM(clean, cleanTap, stamped, target)
		if err != nil {
			return rep, err
		}
		bh, err := GradCAM(backdoored, backTap, stamped, target)
		if err != nil {
			return rep, err
		}
		rep.CleanFocus += TriggerFocusRatio(ch, trigger)
		rep.BackdooredFocus += TriggerFocusRatio(bh, trigger)
	}
	rep.CleanFocus /= float64(n)
	rep.BackdooredFocus /= float64(n)
	return rep, nil
}

// TriggerFocusRatio returns the fraction of saliency mass inside the
// trigger mask. A clean model attends to the object; a backdoored model
// shifts its focus onto the trigger (Figure 8's observation), so this
// ratio rises sharply after the attack.
func TriggerFocusRatio(heat *tensor.Tensor, trigger *data.Trigger) float64 {
	h, w := heat.Dim(0), heat.Dim(1)
	var inside, total float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := float64(heat.At(y, x))
			total += v
			if trigger.InMask(y, x) {
				inside += v
			}
		}
	}
	if total == 0 {
		return 0
	}
	return inside / total
}

// SentiNetReport compares trigger focus before and after an attack
// (averaged over a sample set), the quantitative form of Figure 8.
type SentiNetReport struct {
	// CleanFocus is the mean trigger-region saliency ratio of the clean
	// model on triggered inputs.
	CleanFocus float64
	// BackdooredFocus is the same ratio for the backdoored model.
	BackdooredFocus float64
	// MaskArea is the trigger mask's share of the image area (the
	// focus ratio of an attribution-blind model).
	MaskArea float64
}

package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"gendt/internal/serve"
)

// varsGenerate is the slice of gendt-serve's /debug/vars document the load
// generator consumes. The Generate pointer distinguishes a tier that does
// not expose generation metrics (a gendt-lb front) from one reporting zero
// traffic.
type varsGenerate struct {
	Generate *struct {
		BatchSizeHist serve.SizeHistogramSnap `json:"batch_size_hist"`
	} `json:"generate"`
}

// fetchBatchHist reads the target's cumulative realized-batch-size
// histogram from /debug/vars. Returns nil (no error) when the target does
// not expose one.
func fetchBatchHist(client *http.Client, target string) (*serve.SizeHistogramSnap, error) {
	resp, err := client.Get(target + serve.EndpointVars)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: %s%s: status %d", target, serve.EndpointVars, resp.StatusCode)
	}
	var v varsGenerate
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	if v.Generate == nil {
		return nil, nil
	}
	return &v.Generate.BatchSizeHist, nil
}

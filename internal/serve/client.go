package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"gendt/internal/geo"
)

// RouteFrom converts a trajectory to request route points. The conversion
// is exact: encoding/json writes float64s in shortest round-trip form, so
// a replica decodes the very trajectory the client holds.
func RouteFrom(tr geo.Trajectory) []RoutePoint {
	out := make([]RoutePoint, len(tr))
	for i, p := range tr {
		out[i] = RoutePoint{T: p.T, Lat: p.Lat, Lon: p.Lon}
	}
	return out
}

// PostGenerate sends req to the /v1/generate endpoint under base (a
// replica or balancer URL) and decodes the answer. A status other than 200
// is an error that carries the status and the response body.
func PostGenerate(client *http.Client, base string, req GenerateRequest) (*GenerateResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpResp, err := client.Post(base+EndpointGenerate, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return nil, err
	}
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s status %d: %s", EndpointGenerate, httpResp.StatusCode, bytes.TrimSpace(raw))
	}
	var resp GenerateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("%s: decode response: %w", EndpointGenerate, err)
	}
	return &resp, nil
}
